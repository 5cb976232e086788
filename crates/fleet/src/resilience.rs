//! The recovery layer: bounded retry with deterministic backoff, share
//! validation + quarantine, and quorum accounting.
//!
//! Where [`crate::fault`] decides what *breaks*, this module decides what
//! the orchestrator *does about it*. The two policy knobs live in
//! [`ResilienceConfig`]; its defaults make a fault-free fleet behave
//! bit-identically to the pre-recovery code path (full quorum required,
//! no validity floor). Retry limit, backoff and the straggler budget are
//! fixed constants; on a fault-free round they never trigger.
//!
//! All waiting is simulated: backoff and straggler budgets are virtual
//! ticks on the [`crate::fault::VirtualClock`], never wall-clock sleeps,
//! so recovery decisions are reproducible across `KINET_THREADS` values.

use crate::error::FleetError;
use kinet_data::encoded::KgTableChecker;
use kinet_data::stream::{ChunkSource, StreamValidity, TableChunks};
use kinet_data::Table;
use kinet_kg::NetworkKg;

/// Retries after the first failed acquisition attempt (so a device gets
/// `MAX_RETRIES + 1` attempts at its shard in total).
pub const MAX_RETRIES: usize = 2;
/// Backoff after the first failed attempt, in virtual ticks.
pub const BACKOFF_BASE_TICKS: u64 = 100;
/// Ceiling for the exponentially growing backoff.
pub const BACKOFF_CAP_TICKS: u64 = 1600;
/// Virtual ticks a device may spend straggling per attempt before the
/// orchestrator declares it timed out.
pub const STRAGGLER_BUDGET_TICKS: u64 = 1000;

/// Recovery policy for one fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Fraction of devices that must report for the round to commit.
    pub quorum_frac: f64,
    /// Minimum KG-validity rate a shared table must reach to be pooled;
    /// `0.0` accepts everything finite.
    pub min_share_validity: f64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            quorum_frac: 1.0,
            min_share_validity: 0.0,
        }
    }
}

impl ResilienceConfig {
    /// A policy tolerating partial participation: commit at half the
    /// fleet, quarantine shares below 30% KG validity.
    pub fn tolerant() -> Self {
        Self {
            quorum_frac: 0.5,
            min_share_validity: 0.3,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), FleetError> {
        if !(0.0..=1.0).contains(&self.quorum_frac) {
            return Err(FleetError::Config(format!(
                "quorum_frac={} out of [0, 1]",
                self.quorum_frac
            )));
        }
        if !(0.0..=1.0).contains(&self.min_share_validity) {
            return Err(FleetError::Config(format!(
                "min_share_validity={} out of [0, 1]",
                self.min_share_validity
            )));
        }
        Ok(())
    }

    /// Devices required for quorum: `ceil(quorum_frac * n_devices)`,
    /// never below 1 on a non-empty fleet (an empty commit is useless).
    pub fn quorum_required(&self, n_devices: usize) -> usize {
        if n_devices == 0 {
            return 0;
        }
        let raw = (self.quorum_frac * n_devices as f64).ceil() as usize;
        raw.clamp(1, n_devices)
    }
}

/// Deterministic capped exponential backoff: [`BACKOFF_BASE_TICKS`]
/// doubled `attempt` times, saturating at [`BACKOFF_CAP_TICKS`]. Attempt 0
/// is the delay before the first retry.
pub fn backoff_ticks(attempt: usize) -> u64 {
    let shifted = if attempt >= 63 {
        u64::MAX
    } else {
        BACKOFF_BASE_TICKS.saturating_mul(1u64 << attempt)
    };
    shifted.min(BACKOFF_CAP_TICKS)
}

/// Why a share was rejected before pooling.
#[derive(Clone, Debug, PartialEq)]
pub enum QuarantineReason {
    /// The share carried NaN/infinite numeric cells.
    NonFinite {
        /// Offending cells found.
        cells: usize,
    },
    /// The share's KG-validity rate fell below the configured floor.
    LowValidity {
        /// Measured validity rate.
        rate: f64,
        /// The configured floor it missed.
        floor: f64,
    },
    /// The share could not be scored at all (schema mismatch).
    Unscorable {
        /// The scorer's error.
        message: String,
    },
}

impl QuarantineReason {
    /// One-line rendering for reports.
    pub fn describe(&self) -> String {
        match self {
            QuarantineReason::NonFinite { cells } => {
                format!("non-finite share ({cells} bad cell(s))")
            }
            QuarantineReason::LowValidity { rate, floor } => {
                format!("kg validity {rate:.3} below floor {floor:.3}")
            }
            QuarantineReason::Unscorable { message } => {
                format!("unscorable share: {message}")
            }
        }
    }
}

/// Validates a synthetic share before it may be pooled: scans every
/// numeric cell for non-finite values, then (when `min_share_validity`
/// is positive) scores KG validity chunk-by-chunk with the same
/// [`KgTableChecker`]/[`StreamValidity`] pipeline the aggregate report
/// uses. Returns the share's validity tally on acceptance so the caller
/// can absorb it into a pool-wide aggregate without re-scoring.
///
/// # Errors
///
/// Returns the [`QuarantineReason`] when the share must be rejected.
pub fn validate_share(
    share: &Table,
    kg: &NetworkKg,
    cfg: &ResilienceConfig,
    chunk_rows: usize,
) -> Result<StreamValidity, QuarantineReason> {
    let mut bad_cells = 0usize;
    for col in share.schema().continuous_names() {
        if let Ok(vals) = share.num_column(col) {
            bad_cells += vals.iter().filter(|v| !v.is_finite()).count();
        }
    }
    if bad_cells > 0 {
        return Err(QuarantineReason::NonFinite { cells: bad_cells });
    }
    let checker = KgTableChecker::new(kg.compiled(), kg.base_interner(), share.schema());
    let mut validity = StreamValidity::new();
    let mut chunks = TableChunks::new(share);
    let unscorable = |e: kinet_data::DataError| QuarantineReason::Unscorable {
        message: e.to_string(),
    };
    while let Some(chunk) = chunks.next_chunk(chunk_rows.max(1)).map_err(unscorable)? {
        validity.observe(&checker, &chunk).map_err(unscorable)?;
    }
    let rate = validity.rate();
    if rate < cfg.min_share_validity {
        return Err(QuarantineReason::LowValidity {
            rate,
            floor: cfg.min_share_validity,
        });
    }
    Ok(validity)
}

/// Order-invariant quorum verdict over per-device outcomes.
///
/// `reported[d]` is `true` when device `d`'s contribution was accepted
/// (pooled share, or a local evaluation under a non-sharing policy);
/// quarantined and crashed devices are `false`. The verdict only depends
/// on the *set* of reporting devices — never on completion order — which
/// the proptests in `tests/fleet_faults.rs` pin down.
///
/// # Errors
///
/// Returns [`FleetError::QuorumLost`] listing every device in `degraded`
/// (`(device, why it did not report)`: crashed, or quarantined) when fewer
/// devices reported than the policy requires.
pub fn check_quorum(
    reported: &[bool],
    degraded: &[(usize, String)],
    cfg: &ResilienceConfig,
) -> Result<(), FleetError> {
    let n_devices = reported.len();
    let required = cfg.quorum_required(n_devices);
    let ok = reported.iter().filter(|&&r| r).count();
    if ok >= required {
        return Ok(());
    }
    let mut degraded = degraded.to_vec();
    degraded.sort_by_key(|(d, _)| *d);
    Err(FleetError::QuorumLost {
        reported: ok,
        required,
        n_devices,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::Value;
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    #[test]
    fn defaults_demand_full_quorum_and_accept_everything_finite() {
        let cfg = ResilienceConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.quorum_required(4), 4);
        assert_eq!(cfg.min_share_validity, 0.0);
    }

    #[test]
    fn quorum_required_rounds_up_and_clamps() {
        let mut cfg = ResilienceConfig {
            quorum_frac: 0.5,
            ..ResilienceConfig::default()
        };
        assert_eq!(cfg.quorum_required(4), 2);
        assert_eq!(cfg.quorum_required(5), 3, "ceil(2.5)");
        cfg.quorum_frac = 0.0;
        assert_eq!(cfg.quorum_required(4), 1, "never zero on a live fleet");
        assert_eq!(cfg.quorum_required(0), 0, "empty fleet needs nobody");
        cfg.quorum_frac = 1.0;
        assert_eq!(cfg.quorum_required(7), 7);
    }

    #[test]
    fn validation_rejects_bad_policies() {
        let mut cfg = ResilienceConfig {
            quorum_frac: 1.2,
            ..ResilienceConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.quorum_frac = 0.5;
        cfg.min_share_validity = -0.1;
        assert!(cfg.validate().is_err());
        cfg.min_share_validity = 0.3;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn backoff_doubles_then_caps() {
        assert_eq!(backoff_ticks(0), 100);
        assert_eq!(backoff_ticks(1), 200);
        assert_eq!(backoff_ticks(3), 800);
        assert_eq!(backoff_ticks(4), 1600);
        assert_eq!(backoff_ticks(40), 1600, "capped forever");
        assert_eq!(backoff_ticks(80), 1600, "no shift overflow");
    }

    fn lab_share() -> Table {
        LabSimulator::new(LabSimConfig::small(40, 7))
            .generate()
            .expect("lab generation is infallible at this size")
    }

    /// Overwrites `dst_port` with `port` on every row.
    fn reported_on_port(mut share: Table, port: f64) -> Table {
        let col = LabSimulator::schema()
            .iter()
            .position(|c| c.name() == "dst_port")
            .unwrap();
        for r in 0..share.n_rows() {
            let mut row = share.row(r);
            row[col] = Value::num(port);
            share.set_row(r, row).unwrap();
        }
        share
    }

    #[test]
    fn non_finite_shares_are_quarantined() {
        let kg = LabSimulator::knowledge_graph();
        let cfg = ResilienceConfig::default();
        let share = reported_on_port(lab_share(), f64::NAN);
        match validate_share(&share, &kg, &cfg, 8) {
            Err(QuarantineReason::NonFinite { cells }) => assert_eq!(cells, 40),
            other => panic!("expected non-finite quarantine, got {other:?}"),
        }
    }

    #[test]
    fn validity_floor_quarantines_invalid_shares_but_keeps_valid_ones() {
        let kg = LabSimulator::knowledge_graph();
        let cfg = ResilienceConfig {
            min_share_validity: 0.5,
            ..ResilienceConfig::default()
        };
        let good = lab_share();
        let tally = validate_share(&good, &kg, &cfg, 8).expect("simulated traffic pools");
        assert!(
            tally.rate() > 0.9,
            "simulated lab traffic is KG-valid: {}",
            tally.rate()
        );
        let bad = reported_on_port(lab_share(), -31337.0);
        match validate_share(&bad, &kg, &cfg, 8) {
            Err(QuarantineReason::LowValidity { rate, floor }) => {
                assert!(rate < 0.5, "absurd ports are KG-invalid: {rate}");
                assert_eq!(floor, 0.5);
            }
            other => panic!("expected low-validity quarantine, got {other:?}"),
        }
        // With the floor at zero the same garbage share is accepted.
        let open = ResilienceConfig::default();
        assert!(validate_share(&bad, &kg, &open, 8).is_ok());
    }

    #[test]
    fn quorum_verdict_depends_only_on_the_reporting_set() {
        let cfg = ResilienceConfig {
            quorum_frac: 0.75,
            ..ResilienceConfig::default()
        };
        let reported = [true, false, true, true];
        assert!(check_quorum(&reported, &[], &cfg).is_ok(), "3/4 meets 0.75");
        let reported = [true, false, true, false];
        let err = check_quorum(
            &reported,
            &[(3, "crash".into()), (1, "straggler".into())],
            &cfg,
        )
        .unwrap_err();
        match &err {
            FleetError::QuorumLost {
                reported,
                required,
                n_devices,
                degraded,
            } => {
                assert_eq!((*reported, *required, *n_devices), (2, 3, 4));
                assert_eq!(degraded[0].0, 1, "degraded list sorted by device");
                assert_eq!(degraded[1].0, 3);
            }
            other => panic!("expected quorum loss, got {other:?}"),
        }
        assert_eq!(err.exit_code(), crate::error::EXIT_QUORUM_LOST);
    }
}
