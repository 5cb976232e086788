//! Oracle test for the knowledge-infusion pipeline.
//!
//! [`KgTrainPipeline::fill_positives`] is the compiled form of a plain
//! string procedure: turn each real row into an [`Assignment`], ask the
//! string [`kinet_kg::Reasoner::sample_valid`] for a KG-valid completion
//! of its constrained fields, rebuild a [`Table`] and re-encode it. That
//! procedure lives here as the reference; the tests check that the
//! pipeline produces bit-identical positives, consumes the RNG in the same
//! order, and fails on the same rule/schema conflicts.

use kinet_data::encoded::row_to_assignment;
use kinet_data::transform::DataTransformer;
use kinet_data::{DataError, Table, Value};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_kg::ontology::GraphBuilder;
use kinet_kg::{Assignment, AttrValue, NetworkKg};
use kinet_tensor::Matrix;
use kinetgan::pipeline::KgTrainPipeline;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::BTreeMap;

const MAX_TRIES: usize = 8;

/// Categorical dictionaries of the fitted transformer: the reasoner's
/// fallback value sets for fields the KG constrains only by prefix.
fn domains(table: &Table, transformer: &DataTransformer) -> BTreeMap<String, Vec<String>> {
    table
        .schema()
        .categorical_names()
        .into_iter()
        .filter_map(|name| {
            let enc = transformer.categorical_encoder(name)?;
            Some((name.to_string(), enc.categories().to_vec()))
        })
        .collect()
}

/// The string reference for one batch of D_KG positives: string
/// assignment → `Reasoner::sample_valid` → `Table::from_rows` →
/// `transform_deterministic`.
fn string_positives_batch(
    table: &Table,
    transformer: &DataTransformer,
    kg: &NetworkKg,
    domains: &BTreeMap<String, Vec<String>>,
    real_idx: &[usize],
    rng: &mut StdRng,
) -> Result<Matrix, DataError> {
    let scope = kg.scope_field();
    let rows: Vec<Vec<Value>> = real_idx
        .iter()
        .map(|&row| {
            let mut a = row_to_assignment(table, row);
            let event = a.get_cat(scope).unwrap_or("*").to_string();
            let mut partial = Assignment::new();
            if let Some(e) = a.get_cat(scope) {
                partial.set(scope, AttrValue::cat(e.to_string()));
            }
            let mut fields: Vec<String> = kg
                .reasoner()
                .rules()
                .applicable(&event)
                .map(|r| r.field.clone())
                .filter(|f| f != scope)
                .collect();
            fields.sort();
            fields.dedup();
            if let Some(valid) = kg
                .reasoner()
                .sample_valid(&partial, &fields, domains, rng, MAX_TRIES)
            {
                a.merge(&valid);
            }
            table
                .schema()
                .iter()
                .enumerate()
                .map(|(ci, col)| match a.get(col.name()) {
                    // Categories outside the training dictionary cannot be
                    // encoded; the real value stays.
                    Some(AttrValue::Cat(s)) => {
                        let known = domains
                            .get(col.name())
                            .is_none_or(|domain| domain.iter().any(|d| d == s));
                        if known {
                            Value::cat(s.clone())
                        } else {
                            table.value(row, ci)
                        }
                    }
                    Some(AttrValue::Num(v)) => Value::num(*v),
                    None => table.value(row, ci),
                })
                .collect()
        })
        .collect();
    let pos_table = Table::from_rows(table.schema().clone(), rows)?;
    transformer.transform_deterministic(&pos_table)
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn lab_table(n: usize, seed: u64) -> Table {
    LabSimulator::new(LabSimConfig::small(n, seed))
        .generate()
        .expect("lab generation succeeds")
}

/// Row-index batches over `n` rows: strided, repeated, and a short tail.
fn batches(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let s = seed as usize;
    vec![
        (0..64).map(|i| (i * 7 + s) % n).collect(),
        vec![s % n; 16],
        (0..n.min(40)).rev().collect(),
        (0..32).map(|i| (i * 13 + 3 * s) % n).collect(),
    ]
}

/// Runs the reference and the pipeline side by side over every batch and
/// seed, chaining each side's RNG across batches. Returns how many output
/// rows the pipeline changed relative to the real rows' own encoding.
fn assert_pipeline_matches_reference(kg: &NetworkKg, table: &Table) -> usize {
    let transformer = DataTransformer::fit(table, 4, 7).expect("non-empty table");
    let domains = domains(table, &transformer);
    let base = transformer.transform_deterministic(table).unwrap();
    let mut changed_rows = 0;
    for seed in [1u64, 7, 42, 1009] {
        let mut pipe = KgTrainPipeline::new(kg, table, &transformer);
        let mut out = Matrix::default();
        let mut real = Matrix::default();
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let mut pipe_rng = StdRng::seed_from_u64(seed);
        for idx in batches(table.n_rows(), seed) {
            let expected =
                string_positives_batch(table, &transformer, kg, &domains, &idx, &mut ref_rng)
                    .expect("reference accepts the lab KG");
            pipe.fill_positives(&idx, &mut out, &mut pipe_rng, MAX_TRIES)
                .expect("pipeline accepts the lab KG");
            assert_eq!((out.rows(), out.cols()), (expected.rows(), expected.cols()));
            assert!(
                bits(&out) == bits(&expected),
                "positives diverged from the string reference (seed {seed}, batch {idx:?})"
            );
            assert_eq!(
                ref_rng.random::<u64>(),
                pipe_rng.random::<u64>(),
                "RNG consumption diverged (seed {seed}, batch {idx:?})"
            );
            base.gather_rows_into(&idx, &mut real);
            changed_rows += (0..out.rows())
                .filter(|&r| out.row(r) != real.row(r))
                .count();
        }
    }
    changed_rows
}

#[test]
fn fill_positives_matches_string_reference_on_lab_kg() {
    let table = lab_table(300, 5);
    let changed = assert_pipeline_matches_reference(&LabSimulator::knowledge_graph(), &table);
    assert!(
        changed > 0,
        "the lab KG must re-draw some constrained fields"
    );
}

#[test]
fn fill_positives_matches_string_reference_on_prefix_only_rules() {
    // Prefix rules have no enumerable value set, so both sides draw from
    // the column's dictionary and reject until the prefix matches; the
    // impossible prefix exhausts every try and keeps the real row.
    let store = GraphBuilder::new("prefix")
        .require_prefix("*", "dst_ip", "192.168.1.")
        .require_prefix("heartbeat", "device", "no_such_device")
        .build();
    let kg = NetworkKg::new("prefix", store, "event", &["event"]);
    let table = lab_table(200, 11);
    let changed = assert_pipeline_matches_reference(&kg, &table);
    assert!(changed > 0, "the dictionary fallback must re-draw dst_ip");
}

#[test]
fn type_conflicted_kg_fails_on_both_sides() {
    // AllowedValues on a continuous column: the sampled category cannot
    // be placed on the numeric column.
    let store = GraphBuilder::new("bad")
        .allow_values("*", "dst_port", &["80"])
        .build();
    let kg = NetworkKg::new("bad", store, "event", &["event"]);
    let table = lab_table(100, 9);
    let transformer = DataTransformer::fit(&table, 4, 7).expect("non-empty table");
    let domains = domains(&table, &transformer);
    let idx: Vec<usize> = (0..32).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let reference = string_positives_batch(&table, &transformer, &kg, &domains, &idx, &mut rng);
    assert!(
        matches!(reference, Err(DataError::SchemaMismatch(_))),
        "{reference:?}"
    );
    let mut pipe = KgTrainPipeline::new(&kg, &table, &transformer);
    let mut out = Matrix::default();
    let mut rng = StdRng::seed_from_u64(3);
    let got = pipe.fill_positives(&idx, &mut out, &mut rng, MAX_TRIES);
    assert!(matches!(got, Err(DataError::SchemaMismatch(_))), "{got:?}");
}
