//! Measurement output of a fleet run, JSON round-trippable through the
//! vendored serde deserializer so gates can diff a fresh run against a
//! reloaded snapshot.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-device generator-training diagnostics shipped alongside the
/// synthetic table — what a fleet operator needs to tell "this device's
/// generator diverged" from "the aggregate pool is weak".
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceTrainingDiag {
    /// Index of the device node in the fleet (device identities cycle, so
    /// the name alone is not unique; this also fixes the report order).
    pub device_index: usize,
    /// Device identity.
    pub device: String,
    /// Final-epoch mean discriminator loss.
    pub final_d_loss: f64,
    /// Final-epoch mean generator loss.
    pub final_g_loss: f64,
    /// KG-validity rate of the device's pooled release, as the
    /// aggregator's share validation scored it. `None` for a quarantined
    /// share: its status names the reason, and the rate when validity was
    /// the reason.
    pub final_validity: Option<f64>,
    /// Epochs actually trained.
    pub epochs: usize,
}

/// Canonical [`DeviceReport::status`] label for a healthy contribution.
pub const DEVICE_OK: &str = "ok";

/// One device's contribution to a fleet run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Index of the device node.
    pub device_index: usize,
    /// Device identity.
    pub device: String,
    /// Contribution status: [`DEVICE_OK`], `"degraded: <last failure>"`
    /// (all attempts failed; device excluded from the round), or
    /// `"quarantined: <reason>"` (share rejected before pooling).
    pub status: String,
    /// Failed attempts that were retried before the final outcome.
    pub retries: usize,
    /// Rows the device's shard stream yielded.
    pub shard_rows: usize,
    /// Event classes observed in the shard (sorted).
    pub shard_classes: Vec<String>,
    /// Union classes this device was seeded with (empty when the union
    /// protocol is off or local coverage was already complete).
    pub seeded_classes: Vec<String>,
    /// Rows the device shipped to the aggregator.
    pub share_rows: usize,
    /// Preparation time (generator training for synthetic sharing) in
    /// milliseconds.
    pub prep_ms: f64,
    /// Local detector accuracy (local-only policy).
    pub local_accuracy: Option<f64>,
    /// Local detector attack recall (local-only policy).
    pub local_attack_recall: Option<f64>,
    /// Generator-training diagnostics (synthetic sharing only).
    pub diag: Option<DeviceTrainingDiag>,
}

/// Condition-union protocol outcome.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UnionReport {
    /// Whether the protocol ran.
    pub enabled: bool,
    /// The fleet-wide class union (sorted).
    pub classes: Vec<String>,
    /// Devices that took part: the whole fleet whenever the protocol
    /// runs (kept so reports and fingerprints keep their shape).
    pub devices_opted_in: usize,
    /// `(device, class)` seedings performed.
    pub seeded_pairs: usize,
    /// Mean per-device fraction of union classes observed locally —
    /// what coverage the fleet had *before* the protocol.
    pub coverage_before: f64,
    /// Mean per-device fraction of union classes emittable after seeding
    /// (local ∪ seeded) — the coverage the protocol bought.
    pub coverage_after: f64,
    /// Mean per-device fraction of union classes actually present in the
    /// shipped release (synthetic sharing; 0 otherwise).
    pub release_coverage: f64,
}

/// Fault-and-recovery accounting for one fleet round: what the plan
/// injected, what the orchestrator observed, and how the round survived
/// it. Every field is deterministic (virtual ticks, not wall time) and is
/// folded into [`FleetReport::deterministic_fingerprint`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultReport {
    /// Whether the run had any faults scripted.
    pub enabled: bool,
    /// Canonical rendering of the derived [`crate::fault::FaultPlan`].
    pub injected: Vec<String>,
    /// Fault events the orchestrator actually observed, in device-index
    /// order (`"device 2 (hub) crash-mid-fit: ... [attempt 1]"`).
    pub observed: Vec<String>,
    /// Total failed attempts that were retried, across all devices.
    pub retries: usize,
    /// `(device_index, reason)` for every share rejected before pooling.
    pub quarantined: Vec<(usize, String)>,
    /// `(device_index, last failure)` for every device excluded from the
    /// committed round.
    pub degraded: Vec<(usize, String)>,
    /// Devices whose contribution was accepted.
    pub devices_reported: usize,
    /// Devices the quorum policy required.
    pub quorum_required: usize,
    /// Whether the round met quorum (a report only exists when it did,
    /// but snapshots keep the verdict explicit).
    pub quorum_met: bool,
    /// Virtual ticks spent on backoff, straggling, and delays.
    pub virtual_ticks: u64,
}

impl FaultReport {
    /// A healthy-round report for `n` fully reporting devices.
    pub fn healthy(n: usize) -> Self {
        Self {
            devices_reported: n,
            quorum_required: n,
            quorum_met: true,
            ..Self::default()
        }
    }
}

/// Metrics from one end-to-end fleet run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetReport {
    /// Sharing policy label (`"raw"`, `"synthetic:KiNETGAN"`, …).
    pub policy: String,
    /// Number of simulated devices.
    pub n_devices: usize,
    /// Shard rows per device.
    pub rows_per_device: usize,
    /// Streaming chunk size the run used.
    pub chunk_rows: usize,
    /// Accuracy of the global (or averaged local) NIDS on the held-out
    /// global test stream.
    pub global_accuracy: f64,
    /// Recall on attack classes (fraction of attack records flagged as
    /// *some* attack).
    pub attack_recall: f64,
    /// Total bytes shipped from devices to the aggregator (CSV wire
    /// format).
    pub bytes_shared: usize,
    /// Mean per-device preparation time in milliseconds.
    pub mean_device_prep_ms: f64,
    /// Knowledge-graph validity rate of the pooled shared data, scored
    /// chunk-by-chunk through the compiled reasoner (1.0 when no data is
    /// shared).
    pub pool_kg_validity: f64,
    /// Rows in the pooled table the global detector trained on.
    pub pool_rows: usize,
    /// Label-class histogram of the pooled shared table (empty for
    /// local-only runs). A rare attack class at zero here is class
    /// collapse: the aggregator never even saw a training example for it.
    pub pool_class_counts: Vec<(String, usize)>,
    /// Largest number of decoded shard/window rows resident at once on any
    /// device stream — the number the streaming layer exists to bound
    /// (compare against `rows_per_device`).
    pub peak_decoded_rows: usize,
    /// Condition-union protocol outcome.
    pub union: UnionReport,
    /// Fault-and-recovery accounting.
    pub fault: FaultReport,
    /// Per-device outcomes, in device-index order.
    pub devices: Vec<DeviceReport>,
    /// End-to-end wall-clock time in milliseconds.
    pub total_wall_ms: f64,
}

impl FleetReport {
    /// Pooled count of rows whose label is one of `attack_events`.
    pub fn pool_attack_count(&self, attack_events: &[&str]) -> usize {
        self.pool_class_counts
            .iter()
            .filter(|(name, _)| attack_events.contains(&name.as_str()))
            .map(|(_, n)| n)
            .sum()
    }

    /// A canonical rendering of every **deterministic** field — everything
    /// except wall-clock timings. Two runs of the same config and seed must
    /// produce identical fingerprints for every `KINET_THREADS` value;
    /// tests and the determinism gate compare exactly this.
    ///
    /// Debug builds re-render with every timing field perturbed and assert
    /// the result is unchanged, so a timing value can never silently leak
    /// into the fingerprint as fields are added.
    pub fn deterministic_fingerprint(&self) -> String {
        let rendered = self.render_fingerprint();
        #[cfg(debug_assertions)]
        {
            let mut perturbed = self.clone();
            perturbed.total_wall_ms += 1234.5;
            perturbed.mean_device_prep_ms += 67.8;
            for d in &mut perturbed.devices {
                d.prep_ms += 9.1;
            }
            debug_assert_eq!(
                perturbed.render_fingerprint(),
                rendered,
                "wall-clock timing leaked into deterministic_fingerprint()"
            );
        }
        rendered
    }

    fn render_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "policy={} devices={} rows={} chunk={} acc={:.12} recall={:.12} bytes={} \
             validity={:.12} pool_rows={} peak={}",
            self.policy,
            self.n_devices,
            self.rows_per_device,
            self.chunk_rows,
            self.global_accuracy,
            self.attack_recall,
            self.bytes_shared,
            self.pool_kg_validity,
            self.pool_rows,
            self.peak_decoded_rows,
        );
        let _ = writeln!(out, "classes={:?}", self.pool_class_counts);
        let _ = writeln!(
            out,
            "union enabled={} classes={:?} opted={} pairs={} cov={:.12}/{:.12}/{:.12}",
            self.union.enabled,
            self.union.classes,
            self.union.devices_opted_in,
            self.union.seeded_pairs,
            self.union.coverage_before,
            self.union.coverage_after,
            self.union.release_coverage,
        );
        let _ = writeln!(
            out,
            "fault enabled={} injected={:?} observed={:?} retries={} quarantined={:?} \
             degraded={:?} reported={}/{} quorum_met={} ticks={}",
            self.fault.enabled,
            self.fault.injected,
            self.fault.observed,
            self.fault.retries,
            self.fault.quarantined,
            self.fault.degraded,
            self.fault.devices_reported,
            self.fault.quorum_required,
            self.fault.quorum_met,
            self.fault.virtual_ticks,
        );
        for d in &self.devices {
            let _ = writeln!(
                out,
                "device {} {} status={} retries={} shard={} classes={:?} seeded={:?} share={} \
                 local={:?}/{:?}",
                d.device_index,
                d.device,
                d.status,
                d.retries,
                d.shard_rows,
                d.shard_classes,
                d.seeded_classes,
                d.share_rows,
                d.local_accuracy,
                d.local_attack_recall,
            );
        }
        out
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} devices={:<3} rows/dev={:<6} acc={:.3} attack-recall={:.3} kg-valid={:.3} \
             shared={:>9}B peak-rows={:>6} prep={:>7.1}ms wall={:>7.1}ms",
            self.policy,
            self.n_devices,
            self.rows_per_device,
            self.global_accuracy,
            self.attack_recall,
            self.pool_kg_validity,
            self.bytes_shared,
            self.peak_decoded_rows,
            self.mean_device_prep_ms,
            self.total_wall_ms
        )?;
        if self.union.enabled {
            write!(
                f,
                " union[{} classes, {} seeded, cov {:.2}→{:.2}]",
                self.union.classes.len(),
                self.union.seeded_pairs,
                self.union.coverage_before,
                self.union.coverage_after
            )?;
        }
        if self.fault.enabled {
            write!(
                f,
                " fault[{}/{} reported, {} retries, {} quarantined, {} degraded, {} ticks]",
                self.fault.devices_reported,
                self.fault.quorum_required,
                self.fault.retries,
                self.fault.quarantined.len(),
                self.fault.degraded.len(),
                self.fault.virtual_ticks
            )?;
        }
        Ok(())
    }
}

/// Outcome of one scheduled round of the resident fleet service.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RoundVerdict {
    /// The round met quorum and its pooled model was committed as a new
    /// snapshot generation.
    Committed {
        /// Generation the commit produced.
        generation: u64,
    },
    /// The watchdog killed a hung phase; the service moved on without a
    /// new generation.
    Aborted {
        /// Which phase blew its deadline.
        phase: String,
        /// Virtual ticks the phase spent.
        spent_ticks: u64,
        /// The deadline it blew through.
        deadline_ticks: u64,
    },
    /// The round failed outright (quorum loss, device fault storm); the
    /// service kept serving from the last committed generation.
    Failed {
        /// Rendered [`crate::error::FleetError`].
        error: String,
    },
}

impl RoundVerdict {
    /// Stable one-word label for gates and ledgers.
    pub fn label(&self) -> &'static str {
        match self {
            RoundVerdict::Committed { .. } => "committed",
            RoundVerdict::Aborted { .. } => "aborted",
            RoundVerdict::Failed { .. } => "failed",
        }
    }
}

/// Degraded-mode serving accounting for one service round: how many flow
/// batches were answered while this round was in flight, and how stale
/// the answering model was.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundServingStats {
    /// Flow batches scored during the round.
    pub batches: usize,
    /// Flow rows scored during the round.
    pub rows: usize,
    /// Snapshot generation that answered (the last *committed* one —
    /// never the round in flight).
    pub answered_generation: Option<u64>,
    /// Rounds between the answering commit and the current round: `0`
    /// when this round committed, `>= 1` while serving degraded.
    pub staleness: Option<u64>,
    /// Rows the served classifier flagged as some attack class.
    pub attack_flagged: usize,
    /// Batches that could not be answered because no generation was
    /// committed yet.
    pub unanswered_batches: usize,
    /// Rows rejected as non-finite across the answered batches (never
    /// given a verdict, not counted in `rows`).
    pub rejected_nonfinite: usize,
    /// Rows carrying a category the answering model never saw (still
    /// scored, with an all-zero block for that column).
    pub unknown_category: usize,
}

/// One round's ledger entry in a [`ServiceReport`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Member ids present this round (sorted).
    pub members: Vec<u64>,
    /// Member ids that joined before this round (sorted).
    pub joined: Vec<u64>,
    /// Member ids that left before this round (sorted).
    pub left: Vec<u64>,
    /// Devices the quorum policy required this round.
    pub quorum_required: usize,
    /// How the round ended.
    pub verdict: RoundVerdict,
    /// FNV-1a-64 of the round's [`FleetReport::deterministic_fingerprint`]
    /// as 16 lowercase hex digits, when the round produced one. A string,
    /// not a `u64`: the vendored serde stores numbers as `f64`, which
    /// would round a digest above 2^53 without an error.
    pub fleet_digest: Option<String>,
    /// Attack recall of the round's pooled detector.
    pub attack_recall: Option<f64>,
    /// Global accuracy of the round's pooled detector.
    pub global_accuracy: Option<f64>,
    /// Serving activity while the round was in flight.
    pub serving: RoundServingStats,
}

/// Durable-storage fault accounting for a service run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StorageFaultReport {
    /// Faults the injecting storage layer actually fired.
    pub injected: Vec<String>,
    /// `(object, reason)` for every snapshot rejected during recovery
    /// scans.
    pub rejected_snapshots: Vec<(String, String)>,
}

/// Metrics from a resident multi-round fleet service run. Every field is
/// deterministic — there are no wall-clock timings here (those stay in
/// the per-round [`FleetReport`]s) — so the whole report folds into
/// [`ServiceReport::deterministic_fingerprint`].
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Rounds the service was asked to run.
    pub rounds_planned: usize,
    /// Generation restored from durable storage at startup, when the
    /// service resumed instead of starting fresh.
    pub resumed_from_generation: Option<u64>,
    /// Last committed generation when the service stopped.
    pub final_generation: Option<u64>,
    /// Rounds that committed a new generation.
    pub committed_rounds: usize,
    /// Rounds the watchdog aborted.
    pub aborted_rounds: usize,
    /// Rounds that failed outright.
    pub failed_rounds: usize,
    /// Per-round ledger, in round order.
    pub rounds: Vec<RoundRecord>,
    /// Membership churn ledger (`"round 1: +5 joined"`, …).
    pub churn: Vec<String>,
    /// Durable-storage fault accounting.
    pub storage: StorageFaultReport,
}

impl ServiceReport {
    /// Total flow batches answered across all rounds.
    pub fn serving_batches(&self) -> usize {
        self.rounds.iter().map(|r| r.serving.batches).sum()
    }

    /// Total flow rows scored across all rounds.
    pub fn serving_rows(&self) -> usize {
        self.rounds.iter().map(|r| r.serving.rows).sum()
    }

    /// Total batches that went unanswered (no committed generation yet).
    pub fn unanswered_batches(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.serving.unanswered_batches)
            .sum()
    }

    /// Canonical rendering of the whole report. The service report holds
    /// no wall-clock fields (round timings live in the per-round
    /// [`FleetReport`], which enters here only through the digest of its
    /// own already-timing-free fingerprint), so everything is rendered.
    /// Bit-identical across `KINET_THREADS` values by the same contract
    /// as [`FleetReport::deterministic_fingerprint`].
    pub fn deterministic_fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "service planned={} resumed={:?} final_gen={:?} committed={} aborted={} failed={}",
            self.rounds_planned,
            self.resumed_from_generation,
            self.final_generation,
            self.committed_rounds,
            self.aborted_rounds,
            self.failed_rounds,
        );
        for r in &self.rounds {
            let _ = writeln!(
                out,
                "round {} members={:?} joined={:?} left={:?} quorum={} verdict={:?} \
                 recall={:?} acc={:?}",
                r.round,
                r.members,
                r.joined,
                r.left,
                r.quorum_required,
                r.verdict,
                r.attack_recall,
                r.global_accuracy,
            );
            if let Some(digest) = &r.fleet_digest {
                let _ = writeln!(out, "round {} fleet={digest}", r.round);
            }
            let s = &r.serving;
            let _ = writeln!(
                out,
                "round {} serving batches={} rows={} gen={:?} staleness={:?} flagged={} \
                 unanswered={} rejected={} unknown={}",
                r.round,
                s.batches,
                s.rows,
                s.answered_generation,
                s.staleness,
                s.attack_flagged,
                s.unanswered_batches,
                s.rejected_nonfinite,
                s.unknown_category,
            );
        }
        let _ = writeln!(out, "churn={:?}", self.churn);
        let _ = writeln!(
            out,
            "storage injected={:?} rejected={:?}",
            self.storage.injected, self.storage.rejected_snapshots
        );
        out
    }
}

impl fmt::Display for ServiceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "service: {} round(s) → {} committed / {} aborted / {} failed, gen={:?}, \
             served {} batch(es) ({} rows, {} unanswered), {} churn event(s), \
             {} storage fault(s) ({} snapshot(s) rejected)",
            self.rounds_planned,
            self.committed_rounds,
            self.aborted_rounds,
            self.failed_rounds,
            self.final_generation,
            self.serving_batches(),
            self.serving_rows(),
            self.unanswered_batches(),
            self.churn.len(),
            self.storage.injected.len(),
            self.storage.rejected_snapshots.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> FleetReport {
        FleetReport {
            policy: "synthetic:KiNETGAN".into(),
            n_devices: 2,
            rows_per_device: 500,
            chunk_rows: 128,
            global_accuracy: 0.8,
            attack_recall: 0.7,
            bytes_shared: 2048,
            mean_device_prep_ms: 12.0,
            pool_kg_validity: 0.9,
            pool_rows: 1000,
            pool_class_counts: vec![("heartbeat".into(), 700), ("port_scan".into(), 30)],
            peak_decoded_rows: 628,
            union: UnionReport {
                enabled: true,
                classes: vec!["heartbeat".into(), "port_scan".into()],
                devices_opted_in: 2,
                seeded_pairs: 1,
                coverage_before: 0.75,
                coverage_after: 1.0,
                release_coverage: 1.0,
            },
            fault: FaultReport::healthy(2),
            devices: vec![DeviceReport {
                device_index: 0,
                device: "blink_camera".into(),
                status: DEVICE_OK.into(),
                retries: 0,
                shard_rows: 500,
                shard_classes: vec!["heartbeat".into()],
                seeded_classes: vec!["port_scan".into()],
                share_rows: 500,
                prep_ms: 12.0,
                local_accuracy: None,
                local_attack_recall: None,
                diag: Some(DeviceTrainingDiag {
                    device_index: 0,
                    device: "blink_camera".into(),
                    final_d_loss: 1.0,
                    final_g_loss: 2.0,
                    final_validity: Some(0.95),
                    epochs: 60,
                }),
            }],
            total_wall_ms: 100.0,
        }
    }

    #[test]
    fn accessors_and_display() {
        let r = sample_report();
        assert_eq!(r.pool_attack_count(&["port_scan"]), 30);
        assert_eq!(r.pool_attack_count(&["traffic_flooding"]), 0);
        let s = r.to_string();
        assert!(s.contains("synthetic:KiNETGAN"));
        assert!(s.contains("union["));
    }

    #[test]
    fn display_contains_key_fields() {
        let mut r = sample_report();
        r.devices.clear();
        let s = r.to_string();
        assert!(s.contains("synthetic:KiNETGAN"));
        assert!(s.contains("acc=0.800"));
        assert!(s.contains("kg-valid=0.900"));
        assert!(s.contains("2048"));
        assert!(!s.contains("NaN"), "no devices renders no NaN: {s}");
    }

    #[test]
    fn fingerprint_ignores_timing() {
        let a = sample_report();
        let mut b = sample_report();
        b.total_wall_ms = 9999.0;
        b.mean_device_prep_ms = 0.1;
        b.devices[0].prep_ms = 77.7;
        assert_eq!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut c = sample_report();
        c.attack_recall = 0.5;
        assert_ne!(a.deterministic_fingerprint(), c.deterministic_fingerprint());
    }

    #[test]
    fn fault_accounting_is_fingerprinted() {
        let a = sample_report();
        let mut b = sample_report();
        b.fault.quarantined.push((1, "non-finite share".into()));
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut c = sample_report();
        c.fault.virtual_ticks = 700;
        assert_ne!(
            a.deterministic_fingerprint(),
            c.deterministic_fingerprint(),
            "virtual ticks are deterministic, so they belong in the fingerprint"
        );
        let mut d = sample_report();
        d.devices[0].status = "degraded: crash".into();
        assert_ne!(a.deterministic_fingerprint(), d.deterministic_fingerprint());
    }

    #[test]
    fn probe_mean_and_attack_counts() {
        let mut r = sample_report();
        let mut second = r.devices[0].clone();
        second.device_index = 1;
        second.diag = None;
        r.devices.push(second);
        r.pool_class_counts.push(("traffic_flooding".into(), 12));
        // Attack counts sum exactly the listed classes.
        assert_eq!(r.pool_attack_count(&["port_scan", "traffic_flooding"]), 42);
        assert_eq!(r.pool_attack_count(&["heartbeat"]), 700);
        assert_eq!(r.pool_attack_count(&[]), 0);
        // Training diagnostics carry no probe: neither the summary line
        // nor the fingerprint renders one, with or without a diag.
        assert!(!r.to_string().contains("probe="));
        assert!(!r.deterministic_fingerprint().contains("probe="));
    }

    #[test]
    fn json_roundtrip_through_the_shim_deserializer() {
        let r = sample_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.deterministic_fingerprint(),
            r.deterministic_fingerprint()
        );
        assert_eq!(back.total_wall_ms, r.total_wall_ms);
        assert_eq!(back.devices.len(), 1);
        assert_eq!(back.devices[0].diag.as_ref().unwrap().epochs, 60);
    }

    fn sample_service_report() -> ServiceReport {
        ServiceReport {
            rounds_planned: 3,
            resumed_from_generation: Some(1),
            final_generation: Some(2),
            committed_rounds: 2,
            aborted_rounds: 1,
            failed_rounds: 0,
            rounds: vec![
                RoundRecord {
                    round: 0,
                    members: vec![0, 1],
                    joined: vec![],
                    left: vec![],
                    quorum_required: 2,
                    verdict: RoundVerdict::Committed { generation: 2 },
                    fleet_digest: Some("9ae16a3b2f90404f".into()),
                    attack_recall: Some(0.75),
                    global_accuracy: Some(0.9),
                    serving: RoundServingStats {
                        batches: 4,
                        rows: 512,
                        answered_generation: Some(1),
                        staleness: Some(0),
                        attack_flagged: 40,
                        unanswered_batches: 0,
                        rejected_nonfinite: 0,
                        unknown_category: 3,
                    },
                },
                RoundRecord {
                    round: 1,
                    members: vec![0, 1, 2],
                    joined: vec![2],
                    left: vec![],
                    quorum_required: 3,
                    verdict: RoundVerdict::Aborted {
                        phase: "acquire".into(),
                        spent_ticks: 900,
                        deadline_ticks: 500,
                    },
                    fleet_digest: None,
                    attack_recall: None,
                    global_accuracy: None,
                    serving: RoundServingStats {
                        batches: 4,
                        rows: 512,
                        answered_generation: Some(2),
                        staleness: Some(1),
                        attack_flagged: 38,
                        unanswered_batches: 0,
                        rejected_nonfinite: 1,
                        unknown_category: 0,
                    },
                },
            ],
            churn: vec!["round 1: +2 joined".into()],
            storage: StorageFaultReport {
                injected: vec!["write 1: torn-write kept 50%".into()],
                rejected_snapshots: vec![("snap-0000000002.snap".into(), "checksum".into())],
            },
        }
    }

    #[test]
    fn service_report_totals_and_display() {
        let r = sample_service_report();
        assert_eq!(r.serving_batches(), 8);
        assert_eq!(r.serving_rows(), 1024);
        assert_eq!(r.unanswered_batches(), 0);
        let s = r.to_string();
        assert!(s.contains("2 committed / 1 aborted / 0 failed"), "{s}");
        assert!(s.contains("1 snapshot(s) rejected"), "{s}");
        assert_eq!(
            RoundVerdict::Committed { generation: 1 }.label(),
            "committed"
        );
    }

    #[test]
    fn service_fingerprint_sees_every_ledger() {
        let a = sample_service_report();
        let mut b = sample_service_report();
        b.rounds[1].verdict = RoundVerdict::Failed {
            error: "quorum lost".into(),
        };
        assert_ne!(a.deterministic_fingerprint(), b.deterministic_fingerprint());
        let mut c = sample_service_report();
        c.storage.rejected_snapshots.clear();
        assert_ne!(a.deterministic_fingerprint(), c.deterministic_fingerprint());
        let mut d = sample_service_report();
        d.rounds[0].serving.staleness = Some(2);
        assert_ne!(a.deterministic_fingerprint(), d.deterministic_fingerprint());
        let mut e = sample_service_report();
        e.churn.clear();
        assert_ne!(a.deterministic_fingerprint(), e.deterministic_fingerprint());
        let mut f = sample_service_report();
        f.rounds[0].fleet_digest = Some("9ae16a3b2f90404e".into());
        assert_ne!(a.deterministic_fingerprint(), f.deterministic_fingerprint());
        let mut g = sample_service_report();
        g.rounds[1].serving.rejected_nonfinite = 0;
        assert_ne!(a.deterministic_fingerprint(), g.deterministic_fingerprint());
        let mut h = sample_service_report();
        h.rounds[0].serving.unknown_category = 0;
        assert_ne!(a.deterministic_fingerprint(), h.deterministic_fingerprint());
        let fp = a.deterministic_fingerprint();
        assert!(fp.contains("round 0 fleet=9ae16a3b2f90404f\n"), "{fp}");
        assert!(fp.contains("unanswered=0 rejected=1 unknown=0\n"), "{fp}");
    }

    #[test]
    fn service_report_roundtrips_verdict_enums_through_the_shim() {
        let r = sample_service_report();
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ServiceReport = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.deterministic_fingerprint(),
            r.deterministic_fingerprint()
        );
        assert_eq!(
            back.rounds[0].verdict,
            RoundVerdict::Committed { generation: 2 }
        );
        assert_eq!(back.rounds[1].verdict.label(), "aborted");
        assert_eq!(back.rounds[0].fleet_digest, r.rounds[0].fleet_digest);
        assert_eq!(back.rounds[0].serving, r.rounds[0].serving);
    }
}
