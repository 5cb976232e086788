//! Regression tests of the journal contract (DESIGN.md §2.10): a
//! recorded round's journal is thread-count-invariant, agrees with the
//! report it narrates, belongs to that round alone even while other
//! rounds run concurrently, and recording never perturbs the round's
//! deterministic fingerprint.

use kinet_fleet::{
    DeviceFaultSpec, FaultKind, FleetConfig, FleetReport, FleetSim, ModelKind, ResilienceConfig,
    SharingPolicy,
};
use kinet_obs::Recorder;
use kinet_tensor::pool::with_threads;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// The faulted-round configuration from the chaos suite: retries (a crash
/// and a straggler that moves the virtual clock), quarantine, and union
/// fallback all fire, so every journal event the fleet emits is exercised.
fn faulted_config() -> FleetConfig {
    let mut cfg = FleetConfig::fast(SharingPolicy::Synthetic(ModelKind::KinetGan));
    cfg.n_devices = 4;
    cfg.rows_per_device = 220;
    cfg.model_epochs = 2;
    cfg.chunk_rows = 64;
    cfg.device_attack_fraction = vec![(1, 0.0), (2, 0.0), (3, 0.0)];
    cfg.union = true;
    cfg.fault = vec![
        DeviceFaultSpec::transient(1, FaultKind::CrashAcquire, 1).with_magnitude(50),
        DeviceFaultSpec::transient(2, FaultKind::Straggle, 1).with_magnitude(2500),
        DeviceFaultSpec::permanent(3, FaultKind::PoisonShareNan),
    ];
    cfg.resilience = ResilienceConfig {
        quorum_frac: 0.5,
        min_share_validity: 0.0,
    };
    cfg
}

/// Runs the faulted round recorded at `threads` workers.
fn recorded_round(threads: usize) -> (FleetReport, Recorder) {
    let mut journal = Recorder::new();
    let (report, _) = with_threads(threads, || {
        FleetSim::new(faulted_config())
            .run_recorded(&mut journal)
            .unwrap()
    });
    (report, journal)
}

/// Regression: recording a faulted round leaves its deterministic
/// fingerprint byte-identical — the journal reads state, it never steers
/// it — and the journal's retry/quarantine events match the report's
/// fault accounting one for one.
#[test]
fn faulted_round_fingerprint_identical_obs_on_vs_off() {
    let plain = with_threads(2, || FleetSim::new(faulted_config()).run().unwrap());
    let (recorded, journal) = recorded_round(2);
    assert_eq!(
        plain.deterministic_fingerprint(),
        recorded.deterministic_fingerprint(),
        "recording must be a pure read of the round"
    );
    let retries = journal.events_for("fleet.retry").count();
    let quarantines = journal.events_for("fleet.quarantine").count();
    assert!(
        retries >= 2,
        "the scripted transient crash and straggler should each surface as a retry"
    );
    assert!(
        quarantines > 0,
        "poisoned share should surface as a quarantine"
    );
    assert_eq!(retries, recorded.fault.retries);
    assert_eq!(quarantines, recorded.fault.quarantined.len());
}

/// The journal of a real faulted round is thread-count-invariant.
#[test]
fn faulted_round_journal_bytes_invariant() {
    let renders: Vec<String> = [1usize, 2, 4]
        .into_iter()
        .map(|threads| recorded_round(threads).1.render())
        .collect();
    assert!(!renders[0].is_empty());
    assert_eq!(renders[0], renders[1], "1 vs 2 workers");
    assert_eq!(renders[0], renders[2], "1 vs 4 workers");
}

/// Regression: unrecorded rounds running on another thread never write
/// into a recorded round's journal — its bytes equal a solo recorded run.
/// The barrier starts the recorded round only once the other thread is
/// running rounds, and that thread keeps running them until it is done.
#[test]
fn recorded_journal_ignores_concurrent_unrecorded_rounds() {
    let solo = recorded_round(1).1.render();
    let started = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let concurrent = std::thread::scope(|s| {
        let noise = s.spawn(|| {
            started.wait();
            let mut rounds = 0usize;
            loop {
                FleetSim::new(faulted_config()).run().unwrap();
                rounds += 1;
                if stop.load(Ordering::SeqCst) {
                    return rounds;
                }
            }
        });
        started.wait();
        let render = recorded_round(1).1.render();
        stop.store(true, Ordering::SeqCst);
        assert!(noise.join().unwrap() > 0);
        render
    });
    assert_eq!(solo, concurrent);
}
