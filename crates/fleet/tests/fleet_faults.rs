//! Integration tests of the fault-injection/recovery layer's determinism
//! contract: a chaotic round is exactly as bit-reproducible as a healthy
//! one, and quorum verdicts never depend on completion order.

use kinet_fleet::report::DEVICE_OK;
use kinet_fleet::resilience::{check_quorum, MAX_RETRIES};
use kinet_fleet::storage::fnv1a64;
use kinet_fleet::{
    ChurnConfig, ChurnPlan, DeviceFaultSpec, FaultKind, FleetConfig, FleetError, FleetReport,
    FleetSim, ModelKind, ResilienceConfig, SharingPolicy,
};
use kinet_tensor::pool::with_threads;
use proptest::prelude::*;

/// A non-trivial fault plan over a fast synthetic fleet: a transient
/// acquire crash (exercises retry + backoff), a straggler past the budget
/// (exercises the virtual clock), a NaN-poisoned share (exercises
/// quarantine), and a dropped vocab message (exercises union fallback).
fn chaotic_config() -> FleetConfig {
    let mut cfg = FleetConfig::fast(SharingPolicy::Synthetic(ModelKind::KinetGan));
    cfg.n_devices = 4;
    cfg.rows_per_device = 220;
    cfg.model_epochs = 2;
    cfg.chunk_rows = 64;
    cfg.device_attack_fraction = vec![(1, 0.0), (2, 0.0), (3, 0.0)];
    cfg.union = true;
    cfg.fault = vec![
        DeviceFaultSpec::transient(1, FaultKind::CrashAcquire, 1).with_magnitude(50),
        DeviceFaultSpec::transient(2, FaultKind::Straggle, 1).with_magnitude(3000),
        DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan),
        DeviceFaultSpec::permanent(0, FaultKind::DropVocab),
    ];
    cfg.resilience = ResilienceConfig {
        quorum_frac: 0.5,
        ..ResilienceConfig::default()
    };
    cfg
}

/// The determinism-under-faults contract: retries, backoff ticks,
/// quarantines, degraded lists, and the union fallback are all folded into
/// the fingerprint, and the whole thing is bit-identical at 1, 2, and 4
/// workers.
#[test]
fn faulted_fleet_fingerprint_invariant_across_thread_counts() {
    let cfg = chaotic_config();
    let reports: Vec<_> = [1usize, 2, 4]
        .iter()
        .map(|&t| with_threads(t, || FleetSim::new(cfg.clone()).run().unwrap()))
        .collect();
    let fp: Vec<String> = reports
        .iter()
        .map(|r| r.deterministic_fingerprint())
        .collect();
    assert_eq!(fp[0], fp[1], "1 vs 2 threads");
    assert_eq!(fp[0], fp[2], "1 vs 4 threads");
    // The plan actually fired — this is not a vacuous fingerprint match.
    let fault = &reports[0].fault;
    assert!(fault.enabled);
    assert_eq!(fault.injected.len(), 4, "{:?}", fault.injected);
    assert!(!fault.observed.is_empty());
    assert!(
        fault.retries >= 2,
        "crash + straggler both retried: {fault:?}"
    );
    assert_eq!(fault.quarantined.len(), 1, "{:?}", fault.quarantined);
    assert_eq!(fault.quarantined[0].0, 3);
    assert!(
        fault.degraded.is_empty(),
        "everything healed or quarantined"
    );
    assert_eq!(fault.devices_reported, 3);
    assert!(fault.virtual_ticks > 0, "straggle and backoff spent ticks");
}

/// Re-running the identical chaotic config reproduces the identical
/// report — fault injection consumes no ambient entropy.
#[test]
fn chaotic_rounds_are_rerun_reproducible() {
    let cfg = chaotic_config();
    let a = FleetSim::new(cfg.clone()).run().unwrap();
    let b = FleetSim::new(cfg).run().unwrap();
    assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The quorum verdict is a function of the *set* of reporting devices:
    /// any completion/arrival order of the degraded list produces the
    /// identical verdict, and a `QuorumLost` always lists the degraded
    /// devices sorted by index.
    #[test]
    fn quorum_verdict_invariant_to_completion_order(
        reported in prop::collection::vec(any::<bool>(), 1..12),
        quorum_frac in 0.0f64..=1.0,
        rotation in 0usize..12,
    ) {
        let cfg = ResilienceConfig {
            quorum_frac,
            ..ResilienceConfig::default()
        };
        // Degraded devices in index order, then in an arbitrary rotated +
        // reversed "completion order".
        let degraded: Vec<(usize, String)> = reported
            .iter()
            .enumerate()
            .filter(|(_, r)| !**r)
            .map(|(d, _)| (d, format!("device {d} failed")))
            .collect();
        let mut shuffled = degraded.clone();
        if !shuffled.is_empty() {
            let by = rotation % shuffled.len();
            shuffled.rotate_left(by);
            shuffled.reverse();
        }
        let a = check_quorum(&reported, &degraded, &cfg);
        let b = check_quorum(&reported, &shuffled, &cfg);
        match (a, b) {
            (Ok(()), Ok(())) => {}
            (Err(ea), Err(eb)) => {
                // Same typed verdict, byte for byte, regardless of arrival
                // order — the degraded list is canonicalized.
                prop_assert_eq!(ea.to_string(), eb.to_string());
                if let FleetError::QuorumLost { degraded: listed, reported: ok, required, n_devices } = ea {
                    prop_assert!(listed.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by device");
                    prop_assert!(ok < required);
                    prop_assert_eq!(n_devices, reported.len());
                    prop_assert_eq!(ok, reported.iter().filter(|&&r| r).count());
                }
            }
            (a, b) => prop_assert!(false, "verdicts diverged: {a:?} vs {b:?}"),
        }
    }

    /// `quorum_required` is monotone in the fraction, rounds up, and never
    /// exceeds the fleet (nor hits zero on a live fleet).
    #[test]
    fn quorum_required_is_well_behaved(
        frac in 0.0f64..=1.0,
        n in 0usize..64,
    ) {
        let cfg = ResilienceConfig { quorum_frac: frac, ..ResilienceConfig::default() };
        let req = cfg.quorum_required(n);
        if n == 0 {
            prop_assert_eq!(req, 0);
        } else {
            prop_assert!((1..=n).contains(&req));
            prop_assert!(req as f64 + 1.0 > frac * n as f64, "ceil lower bound");
        }
    }
}

/// Pins a recovered raw-sharing round bit for bit: four devices, union
/// on, half quorum, and scripted faults whose magnitudes the plan draws
/// from its seeded RNG. A transient acquire crash and a transient
/// straggle past its budget each retry twice with backoff, a dropped
/// vocabulary shrinks the union, and a NaN-poisoned share is quarantined,
/// so the constant covers the retry limit, the backoff schedule, the
/// straggler budget and the magnitude draws together.
#[test]
fn recovered_raw_round_fingerprint_is_pinned() {
    let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
    cfg.n_devices = 4;
    cfg.union = true;
    cfg.fault = vec![
        DeviceFaultSpec::transient(0, FaultKind::CrashAcquire, 2),
        DeviceFaultSpec::transient(1, FaultKind::Straggle, 2),
        DeviceFaultSpec::permanent(2, FaultKind::DropVocab),
        DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan),
    ];
    cfg.resilience.quorum_frac = 0.5;
    let report = FleetSim::new(cfg).run().unwrap();
    let fingerprint = report.deterministic_fingerprint();
    assert_eq!(report.fault.quarantined.len(), 1, "{fingerprint}");
    assert_eq!(report.fault.retries, 4, "{fingerprint}");
    assert_eq!(
        fnv1a64(fingerprint.as_bytes()),
        0xe334_d7ca_a79e_ea63,
        "{fingerprint}"
    );
}

/// A raw four-device round with one scripted fault on device 2 and half
/// quorum, beside the same round without it.
fn corrupt_round(spec: DeviceFaultSpec) -> (FleetReport, FleetReport) {
    let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
    cfg.n_devices = 4;
    cfg.resilience.quorum_frac = 0.5;
    let clean = FleetSim::new(cfg.clone()).run().unwrap();
    cfg.fault = vec![spec];
    (FleetSim::new(cfg).run().unwrap(), clean)
}

/// A chunk of NaN cells is caught by the device-side integrity scan as a
/// stream fault; the retry streams the shard clean, so the healed device
/// contributes exactly what a fault-free device would.
#[test]
fn transient_corrupt_chunks_are_caught_and_retried_clean() {
    let (report, clean) = corrupt_round(DeviceFaultSpec::transient(2, FaultKind::CorruptChunks, 1));
    assert_eq!(report.fault.retries, 1, "{:?}", report.fault);
    assert_eq!(report.devices[2].retries, 1);
    assert_eq!(report.devices[2].status, DEVICE_OK);
    assert!(
        report
            .fault
            .observed
            .iter()
            .any(|o| o.starts_with("device 2 ")
                && o.contains(" stream: ")
                && o.contains("corrupt chunk")),
        "{:?}",
        report.fault.observed
    );
    assert_eq!(report.devices[2].shard_rows, clean.devices[2].shard_rows);
    assert_eq!(
        report.devices[2].shard_classes,
        clean.devices[2].shard_classes
    );
    assert_eq!(report.global_accuracy, clean.global_accuracy);
}

/// A stream that is corrupt on every attempt degrades its device once the
/// retries run out; the rest of the fleet still commits.
#[test]
fn permanent_corrupt_chunks_degrade_the_device() {
    let (report, _) = corrupt_round(DeviceFaultSpec::permanent(2, FaultKind::CorruptChunks));
    assert_eq!(report.devices[2].retries, MAX_RETRIES);
    assert!(
        report.devices[2].status.starts_with("degraded:"),
        "{}",
        report.devices[2].status
    );
    assert_eq!(report.fault.degraded.len(), 1);
    assert_eq!(report.fault.degraded[0].0, 2);
    assert_eq!(report.fault.devices_reported, 3);
    assert_eq!(report.devices[2].share_rows, 0);
}

/// Pins the membership schedules of the service gate's two scripted
/// churn configurations: one member joining a 4-member fleet before
/// round 1, and both members of a 2-member fleet leaving before round 1.
#[test]
fn scripted_churn_plans_are_pinned() {
    let members = |plan: &ChurnPlan| -> Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> {
        plan.rounds
            .iter()
            .map(|r| (r.members.clone(), r.joined.clone(), r.left.clone()))
            .collect()
    };
    let join = ChurnConfig {
        scripted_joins: vec![(1, 1)],
        min_members: 1,
        ..ChurnConfig::default()
    };
    assert_eq!(
        members(&ChurnPlan::derive(2, &[0, 1, 2, 3], &join)),
        vec![
            (vec![0, 1, 2, 3], vec![], vec![]),
            (vec![0, 1, 2, 3, 4], vec![4], vec![]),
        ]
    );
    let leave = ChurnConfig {
        scripted_leaves: vec![(1, 0), (1, 1)],
        min_members: 2,
        ..ChurnConfig::default()
    };
    assert_eq!(
        members(&ChurnPlan::derive(3, &[0, 1], &leave)),
        vec![
            (vec![0, 1], vec![], vec![]),
            (vec![], vec![], vec![0, 1]),
            (vec![], vec![], vec![]),
        ]
    );
}
