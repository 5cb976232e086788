//! Integration tests of the condition-union protocol and the fleet's
//! determinism contract.

use kinet_fleet::{FleetConfig, FleetSim, ModelKind, SharingPolicy};
use kinet_tensor::pool::with_threads;
use proptest::prelude::*;
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Union merging is a pure set fold: any permutation of the device
    /// vocabularies produces the identical union, and every union class
    /// traces back to at least one device.
    #[test]
    fn union_merge_is_order_insensitive(
        vocabs in prop::collection::vec(
            prop::collection::btree_set(
                prop::sample::select(vec![
                    "heartbeat", "dns_lookup", "motion_detected", "tag_sync",
                    "port_scan", "traffic_flooding", "cve_1999_0003",
                ]),
                0..6,
            ),
            0..8,
        ),
        rotation in 0usize..8,
    ) {
        let owned: Vec<BTreeSet<String>> = vocabs
            .iter()
            .map(|v| v.iter().map(|s| s.to_string()).collect())
            .collect();
        let forward = kinet_fleet::union::merge_vocabs(owned.iter());
        // A rotated (and reversed) arrival order must not change the union.
        let mut rotated: Vec<&BTreeSet<String>> = owned.iter().collect();
        if !rotated.is_empty() {
            let by = rotation % rotated.len();
            rotated.rotate_left(by);
            rotated.reverse();
        }
        let backward = kinet_fleet::union::merge_vocabs(rotated.into_iter());
        prop_assert_eq!(&forward, &backward);
        // Soundness: every union class appears in some vocabulary, and
        // every vocabulary is contained in the union.
        for class in &forward {
            prop_assert!(owned.iter().any(|v| v.contains(class)));
        }
        for v in &owned {
            prop_assert!(v.is_subset(&forward));
        }
    }

    /// The missing-set is exactly the union minus the local vocabulary.
    #[test]
    fn missing_classes_partition_the_union(
        local in prop::collection::btree_set(
            prop::sample::select(vec!["a", "b", "c", "d", "e"]), 0..5),
        extra in prop::collection::btree_set(
            prop::sample::select(vec!["a", "b", "c", "d", "e", "f", "g"]), 0..6),
    ) {
        let local: BTreeSet<String> = local.iter().map(|s| s.to_string()).collect();
        let extra: BTreeSet<String> = extra.iter().map(|s| s.to_string()).collect();
        let union = kinet_fleet::union::merge_vocabs([&local, &extra]);
        let missing = kinet_fleet::union::missing_classes(&local, &union);
        for m in &missing {
            prop_assert!(!local.contains(m));
            prop_assert!(union.contains(m));
        }
        let covered: BTreeSet<String> =
            local.iter().cloned().chain(missing.iter().cloned()).collect();
        prop_assert_eq!(covered, union);
    }
}

/// The vocabulary scan and union exchange are deterministic for every
/// `KINET_THREADS` value: the full deterministic fingerprint (pool
/// histograms, byte counts, union coverage, per-device classes) must be
/// bit-identical whether devices run on 1, 2, or 4 workers.
#[test]
fn fleet_fingerprint_invariant_across_thread_counts() {
    let mut cfg = FleetConfig::fast(SharingPolicy::Synthetic(ModelKind::KinetGan));
    cfg.n_devices = 3;
    cfg.rows_per_device = 220;
    cfg.model_epochs = 2;
    cfg.chunk_rows = 64;
    cfg.device_attack_fraction = vec![(1, 0.0), (2, 0.0)];
    cfg.union = true;
    let fingerprints: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&t| {
            with_threads(t, || {
                FleetSim::new(cfg.clone())
                    .run()
                    .unwrap()
                    .deterministic_fingerprint()
            })
        })
        .collect();
    assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 threads");
    assert_eq!(fingerprints[0], fingerprints[2], "1 vs 4 threads");
}

/// The headline union property: on a crafted class-skewed split (three of
/// four devices never observe a single attack), switching the protocol on
/// at the same seed strictly improves pooled attack recall, and the
/// benign-only devices demonstrably emit attack classes they never saw.
#[test]
fn union_recovers_attack_recall_on_skewed_split() {
    let base = FleetConfig {
        n_devices: 4,
        rows_per_device: 400,
        test_records: 800,
        policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
        model_epochs: 60,
        seed: 42,
        // Devices 1–3 are benign-only: without the union protocol their
        // generators cannot emit any attack class.
        device_attack_fraction: vec![(1, 0.0), (2, 0.0), (3, 0.0)],
        ..FleetConfig::default()
    };
    let mut with_union = base.clone();
    with_union.union = true;

    let off = FleetSim::new(base).run().unwrap();
    let on = FleetSim::new(with_union).run().unwrap();
    println!("union off: {off}");
    println!("union on:  {on}");

    let attacks = kinet_datasets::lab::LabSimulator::attack_events();
    // The union must actually have been exercised: every benign-only
    // device seeded with (at least) all three attack classes — shards are
    // single-device streams, so device-specific benign classes (a camera
    // never witnesses `lamp_on`) are legitimately seeded as well.
    assert!(on.union.enabled && !off.union.enabled);
    assert!(on.union.seeded_pairs >= 9, "{:?}", on.union);
    assert!(
        on.union.coverage_after > on.union.coverage_before,
        "{:?}",
        on.union
    );
    assert!(
        (on.union.coverage_after - 1.0).abs() < 1e-9,
        "seeding completes coverage: {:?}",
        on.union
    );
    // Benign-only devices are seeded with every attack class.
    for d in &on.devices[1..] {
        for attack in &attacks {
            assert!(
                d.seeded_classes.iter().any(|c| c == attack),
                "device {} missing attack seed {attack}: {:?}",
                d.device_index,
                d.seeded_classes
            );
        }
    }
    assert!(
        on.union.release_coverage > off_release_coverage_bound(&off),
        "union releases cover more classes: on {:.3}",
        on.union.release_coverage
    );
    // More attack training rows reach the aggregator…
    let on_attacks = on.pool_attack_count(&attacks);
    let off_attacks = off.pool_attack_count(&attacks);
    assert!(
        on_attacks > off_attacks,
        "pooled attack rows: union on {on_attacks} vs off {off_attacks}"
    );
    // …and the deployed detector strictly improves on attack recall at the
    // same seed.
    assert!(
        on.attack_recall > off.attack_recall,
        "attack recall must strictly improve: on {:.3} vs off {:.3}",
        on.attack_recall,
        off.attack_recall
    );
    // The protocol must not wreck overall accuracy or semantic validity.
    assert!(on.global_accuracy >= 0.5, "{on}");
    assert!(on.pool_kg_validity >= 0.5, "{on}");
}

/// With the protocol off, release coverage is reported as zero; helper to
/// keep the assertion self-describing.
fn off_release_coverage_bound(off: &kinet_fleet::FleetReport) -> f64 {
    assert_eq!(off.union.release_coverage, 0.0);
    0.0
}
