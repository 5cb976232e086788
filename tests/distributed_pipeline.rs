//! Integration test of the distributed NIDS simulation across all three
//! sharing policies.

use kinet_fleet::{FleetConfig, FleetSim, ModelKind, SharingPolicy};

#[test]
fn all_policies_complete_and_report_sane_metrics() {
    let mut reports = Vec::new();
    for policy in [
        SharingPolicy::Raw,
        SharingPolicy::Synthetic(ModelKind::KinetGan),
        SharingPolicy::LocalOnly,
    ] {
        let report = FleetSim::new(FleetConfig::fast(policy)).run().unwrap();
        assert!((0.0..=1.0).contains(&report.global_accuracy), "{report}");
        assert!((0.0..=1.0).contains(&report.attack_recall), "{report}");
        assert!(report.total_wall_ms > 0.0);
        reports.push(report);
    }
    // raw and synthetic place bytes on the wire; local-only does not
    assert!(reports[0].bytes_shared > 0);
    assert!(reports[1].bytes_shared > 0);
    assert_eq!(reports[2].bytes_shared, 0);
    // synthetic sharing pays a model-training cost raw sharing does not
    assert!(reports[1].mean_device_prep_ms > reports[0].mean_device_prep_ms);
}

#[test]
fn raw_sharing_beats_local_only_on_global_detection() {
    // Pooling data across devices should give the global detector an edge
    // over isolated local detectors facing the full event mix.
    let raw = FleetSim::new(FleetConfig {
        n_devices: 3,
        rows_per_device: 400,
        test_records: 600,
        policy: SharingPolicy::Raw,
        model_epochs: 2,
        seed: 5,
        ..FleetConfig::default()
    })
    .run()
    .unwrap();
    let local = FleetSim::new(FleetConfig {
        n_devices: 3,
        rows_per_device: 400,
        test_records: 600,
        policy: SharingPolicy::LocalOnly,
        model_epochs: 2,
        seed: 5,
        ..FleetConfig::default()
    })
    .run()
    .unwrap();
    assert!(
        raw.global_accuracy + 0.05 >= local.global_accuracy,
        "raw {} should not lose badly to local-only {}",
        raw.global_accuracy,
        local.global_accuracy
    );
}
