//! The condition-union protocol: vocabulary exchange, union merging, and
//! knowledge-graph seed synthesis.
//!
//! PR 4 left a structural gap in synthetic sharing (ROADMAP): a device
//! whose shard never contained a class — a camera that never witnessed a
//! port scan — cannot emit that class, because its condition-vector
//! dictionary is fit on local data only. The fleet closes the gap without
//! moving any raw rows:
//!
//! 1. every device publishes the **class vocabulary** it observed (names
//!    only — no records cross the wire);
//! 2. the fleet folds the vocabularies into their union (a set union, so
//!    the result is insensitive to device order and arrival order);
//! 3. each device receives its missing classes and synthesizes
//!    [`SEEDS_PER_CLASS`] **KG-valid seed rows** per class — the knowledge
//!    graph knows each class's discriminative structure (protocols, port
//!    windows, destination constraints) even when the device has never
//!    seen one — and appends them to its training shard;
//! 4. the device's sampling-time condition drawer is switched to
//!    [`RELEASE_BALANCE`] so the seeded classes are actually drawn at
//!    release time.

use crate::error::FleetError;
use kinet_data::sampler::BalanceMode;
use kinet_data::{ColumnKind, Table, Value};
use kinet_kg::{Assignment, AttrValue, NetworkKg};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// KG-synthesized seed rows appended per missing class.
pub const SEEDS_PER_CLASS: usize = 16;

/// Sampling-time condition balance for devices that received union
/// seeds, so a class backed by a handful of seed rows is actually drawn
/// at release time. Devices with full local coverage keep the model
/// default.
pub const RELEASE_BALANCE: BalanceMode = BalanceMode::LogFreq;

/// Folds per-device class vocabularies into their union. A pure set fold:
/// associative, commutative, and therefore independent of device order —
/// the property the fleet's determinism contract rests on (proptested in
/// `tests/fleet_union.rs`).
pub fn merge_vocabs<'a>(
    vocabs: impl IntoIterator<Item = &'a BTreeSet<String>>,
) -> BTreeSet<String> {
    let mut union = BTreeSet::new();
    for vocab in vocabs {
        union.extend(vocab.iter().cloned());
    }
    union
}

/// The classes in `union` that `local` is missing, in sorted order.
pub fn missing_classes(local: &BTreeSet<String>, union: &BTreeSet<String>) -> Vec<String> {
    union.difference(local).cloned().collect()
}

/// Synthesizes `per_class` KG-valid seed rows for each class in `missing`,
/// ready to append to `local` before training.
///
/// Each seed starts from a random local row (plausible unconstrained
/// features: packet counts, durations), then overwrites the scope field
/// with the class and every KG-constrained field with a value drawn from
/// the reasoner's valid sets/ranges — so the seed carries exactly the
/// structure that makes the class detectable (e.g. the CVE-1999-0003
/// portmap window, flooding's local-subnet destinations). Classes whose
/// constraints cannot be satisfied from the local dictionaries within the
/// rejection budget contribute fewer (possibly zero) rows rather than
/// invalid ones.
///
/// # Errors
///
/// Returns [`FleetError::Internal`] when `local` is empty and
/// [`FleetError::Data`] when a seed row violates the schema (a KG/schema
/// type conflict).
pub fn synthesize_seeds(
    kg: &NetworkKg,
    local: &Table,
    missing: &[String],
    per_class: usize,
    seed: u64,
) -> Result<Table, FleetError> {
    if local.is_empty() {
        return Err(FleetError::Internal(
            "cannot synthesize union seeds from an empty shard".into(),
        ));
    }
    let scope = kg.scope_field();
    let schema = local.schema().clone();
    // Local categorical dictionaries: the reasoner's fallback for fields
    // the KG leaves unconstrained (device identity, source addresses).
    let mut domains: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for name in schema.categorical_names() {
        let mut values: Vec<String> = local
            .cat_column(name)
            .map_err(|e| FleetError::Data {
                context: "union seed synthesis".into(),
                source: e,
            })?
            .to_vec();
        values.sort();
        values.dedup();
        domains.insert(name.to_string(), values);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seeds = Table::empty(schema.clone());
    for class in missing {
        let mut partial = Assignment::new();
        partial.set(scope, AttrValue::cat(class.clone()));
        // Every field the KG constrains for this class (global rules
        // included), minus the scope itself.
        let mut fields: Vec<String> = kg
            .reasoner()
            .rules()
            .applicable(class)
            .map(|r| r.field.clone())
            .filter(|f| f != scope)
            .collect();
        fields.sort();
        fields.dedup();
        for _ in 0..per_class {
            let base = rng.random_range(0..local.n_rows());
            let Some(valid) = kg
                .reasoner()
                .sample_valid(&partial, &fields, &domains, &mut rng, 16)
            else {
                continue; // unsatisfiable from this shard's dictionaries
            };
            let row: Vec<Value> = schema
                .iter()
                .enumerate()
                .map(|(ci, col)| match (valid.get(col.name()), col.kind()) {
                    (Some(AttrValue::Cat(s)), ColumnKind::Categorical) => Value::cat(s.clone()),
                    (Some(AttrValue::Num(v)), ColumnKind::Continuous) => Value::num(*v),
                    // Kind conflict or unconstrained: keep the base row's
                    // locally plausible value.
                    _ => local.value(base, ci),
                })
                .collect();
            seeds.push_row(row).map_err(|e| FleetError::Data {
                context: "union seed synthesis".into(),
                source: e,
            })?;
        }
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    fn vocab(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn merge_and_missing() {
        let a = vocab(&["heartbeat", "dns_lookup"]);
        let b = vocab(&["heartbeat", "port_scan"]);
        let union = merge_vocabs([&a, &b]);
        assert_eq!(union, vocab(&["dns_lookup", "heartbeat", "port_scan"]));
        assert_eq!(missing_classes(&a, &union), vec!["port_scan".to_string()]);
        assert!(missing_classes(&union, &union).is_empty());
        assert!(merge_vocabs(std::iter::empty()).is_empty());
    }

    #[test]
    fn seeds_are_kg_valid_and_labeled() {
        // A benign-only shard: the device has never seen any attack.
        let sim = LabSimulator::new(LabSimConfig {
            n_records: 200,
            seed: 5,
            attack_fraction: 0.0,
        });
        let local = sim.generate_for_device("smart_plug", 120).unwrap();
        let kg = LabSimulator::knowledge_graph();
        let missing = vec![
            "cve_1999_0003".to_string(),
            "port_scan".to_string(),
            "traffic_flooding".to_string(),
        ];
        let seeds = synthesize_seeds(&kg, &local, &missing, 10, 99).unwrap();
        assert!(
            seeds.n_rows() >= 24,
            "most seeds should satisfy the KG within budget: {}",
            seeds.n_rows()
        );
        let checker = kinet_data::encoded::KgTableChecker::new(
            kg.compiled(),
            kg.base_interner(),
            seeds.schema(),
        );
        assert_eq!(
            checker.count_valid(&seeds).unwrap(),
            seeds.n_rows(),
            "every emitted seed must be KG-valid"
        );
        let counts = seeds.category_counts("event").unwrap();
        for class in &missing {
            assert!(
                counts.get(class).copied().unwrap_or(0) > 0,
                "{class} absent"
            );
        }
        // Discriminative structure survives: the CVE portmap window.
        for (event, &port) in seeds
            .cat_column("event")
            .unwrap()
            .iter()
            .zip(seeds.num_column("dst_port").unwrap())
        {
            if event == "cve_1999_0003" {
                assert!((32771.0..=34000.0).contains(&port), "port {port}");
            }
        }
    }

    #[test]
    fn seeding_is_deterministic_per_seed() {
        let sim = LabSimulator::new(LabSimConfig {
            n_records: 100,
            seed: 6,
            attack_fraction: 0.0,
        });
        let local = sim.generate_for_device("blink_camera", 80).unwrap();
        let kg = LabSimulator::knowledge_graph();
        let missing = vec!["port_scan".to_string()];
        let a = synthesize_seeds(&kg, &local, &missing, 6, 1).unwrap();
        let b = synthesize_seeds(&kg, &local, &missing, 6, 1).unwrap();
        assert_eq!(a, b);
        let c = synthesize_seeds(&kg, &local, &missing, 6, 2).unwrap();
        assert_ne!(a, c, "different seed, different rows");
    }

    #[test]
    fn empty_shard_rejected() {
        let kg = LabSimulator::knowledge_graph();
        let empty = Table::empty(LabSimulator::schema());
        assert!(synthesize_seeds(&kg, &empty, &["port_scan".to_string()], 4, 0).is_err());
    }
}
