//! Fleet run configuration: sharing policies, scale knobs, memory bounds,
//! the condition-union switch, and the fault/recovery policies.

use crate::error::FleetError;
use crate::fault::{self, DeviceFaultSpec};
use crate::resilience::ResilienceConfig;

/// Which synthesizer devices use under [`SharingPolicy::Synthetic`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's knowledge-infused model.
    KinetGan,
    /// The CTGAN baseline.
    CtGan,
}

impl ModelKind {
    /// Display name used in policy labels.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::KinetGan => "KiNETGAN",
            ModelKind::CtGan => "CTGAN",
        }
    }
}

/// What each device ships to the aggregator.
#[derive(Clone, Debug, PartialEq)]
pub enum SharingPolicy {
    /// Raw local records (no privacy).
    Raw,
    /// Synthetic records from a locally trained generator.
    Synthetic(ModelKind),
    /// Nothing; devices train and evaluate local detectors only.
    LocalOnly,
}

impl SharingPolicy {
    /// Report label (`"raw"`, `"synthetic:KiNETGAN"`, `"local-only"`).
    pub fn label(&self) -> String {
        match self {
            SharingPolicy::Raw => "raw".to_string(),
            SharingPolicy::Synthetic(m) => format!("synthetic:{}", m.label()),
            SharingPolicy::LocalOnly => "local-only".to_string(),
        }
    }
}

/// Configuration of one fleet run over the lab IoT deployment.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of device nodes (device identities cycle through the lab's
    /// four traffic-originating devices).
    pub n_devices: usize,
    /// Local records observed per device.
    pub rows_per_device: usize,
    /// Rows in the held-out global test stream.
    pub test_records: usize,
    /// Sharing policy under test.
    pub policy: SharingPolicy,
    /// Generator training epochs for synthetic sharing.
    pub model_epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Rows per generation chunk: the unit of decoded-rows residency on
    /// the streaming path.
    pub chunk_rows: usize,
    /// Decoded-rows bound for the per-device working set (training table
    /// for synthetic sharing, local detector data for local-only, shipped
    /// rows for raw sharing). `None` keeps the whole shard decoded — the
    /// pre-fleet behavior, appropriate for small shards.
    pub device_window: Option<usize>,
    /// Fraction of records that are attacks (default 0.08, the lab mix).
    pub attack_fraction: f64,
    /// Per-device attack-fraction overrides, for crafted class-skewed
    /// splits (`(device_index, fraction)`).
    pub device_attack_fraction: Vec<(usize, f64)>,
    /// The condition-union protocol (§VI-flavored fleet extension):
    /// devices exchange their observed event-class vocabularies, and every
    /// device missing a class of the union trains on
    /// [`crate::union::SEEDS_PER_CLASS`] knowledge-graph-synthesized seed
    /// rows for it. Off reproduces the pre-fleet behavior: a device whose
    /// shard misses a class can never emit it.
    pub union: bool,
    /// Scripted faults to inject (none by default).
    pub fault: Vec<DeviceFaultSpec>,
    /// Recovery policy: the quorum and the share-validity floor. Defaults
    /// reproduce the pre-recovery behavior (full quorum, no floor).
    pub resilience: ResilienceConfig,
    /// Stable member identities behind the device slots, for resident
    /// multi-round fleets with churn: slot `d`'s data seed and device
    /// identity derive from `member_ids[d]`, so a member keeps its shard
    /// stream across rounds no matter which slot churn leaves it in.
    /// Empty (the default) means slot index = member id — bit-identical to
    /// the pre-service behavior.
    pub member_ids: Vec<u64>,
    /// Round watchdog deadline in virtual ticks, checked against each of
    /// the acquire, union and prepare phases. A phase whose devices burn
    /// more ticks than this (stragglers, retry backoff, vocab delays)
    /// aborts the round with
    /// [`FleetError::Watchdog`](crate::error::FleetError::Watchdog)
    /// instead of waiting forever; the resident service records the abort
    /// and proceeds. Ticks are *virtual* ticks on the
    /// [`VirtualClock`](crate::fault::VirtualClock), never wall time, so a
    /// watchdog verdict is bit-reproducible. `None` (the default) never
    /// aborts.
    pub watchdog_ticks: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            n_devices: 4,
            rows_per_device: 800,
            test_records: 1200,
            policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
            // The small-shard budget the Table-1 quality floors were
            // measured at (DESIGN.md §2.4).
            model_epochs: 60,
            seed: 42,
            chunk_rows: 1024,
            device_window: None,
            attack_fraction: 0.08,
            device_attack_fraction: Vec::new(),
            union: false,
            fault: Vec::new(),
            resilience: ResilienceConfig::default(),
            member_ids: Vec::new(),
            watchdog_ticks: None,
        }
    }
}

impl FleetConfig {
    /// A fast configuration for tests.
    pub fn fast(policy: SharingPolicy) -> Self {
        Self {
            n_devices: 2,
            rows_per_device: 250,
            test_records: 400,
            model_epochs: 2,
            policy,
            ..Self::default()
        }
    }

    /// The stable member identity behind device slot `d` (slot index when
    /// no explicit membership is configured).
    pub fn member_id(&self, device_index: usize) -> u64 {
        self.member_ids
            .get(device_index)
            .copied()
            .unwrap_or(device_index as u64)
    }

    /// The attack fraction device `d` observes.
    pub fn attack_fraction_for(&self, device_index: usize) -> f64 {
        self.device_attack_fraction
            .iter()
            .find(|(d, _)| *d == device_index)
            .map(|(_, f)| *f)
            .unwrap_or(self.attack_fraction)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] naming the first invalid field.
    pub fn validate(&self) -> Result<(), FleetError> {
        let bad = |m: &str| Err(FleetError::Config(m.to_string()));
        if self.n_devices == 0 {
            return bad("n_devices must be positive");
        }
        if self.rows_per_device == 0 {
            return bad("rows_per_device must be positive");
        }
        if self.test_records == 0 {
            return bad("test_records must be positive");
        }
        if self.chunk_rows == 0 {
            return bad("chunk_rows must be positive");
        }
        if self.device_window == Some(0) {
            return bad("device_window must be positive when set");
        }
        if !(0.0..=1.0).contains(&self.attack_fraction) {
            return bad("attack_fraction must be in [0, 1]");
        }
        for (d, f) in &self.device_attack_fraction {
            if *d >= self.n_devices {
                return Err(FleetError::Config(format!(
                    "attack-fraction override for unknown device {d}"
                )));
            }
            if !(0.0..=1.0).contains(f) {
                return Err(FleetError::Config(format!(
                    "device {d} attack fraction {f} out of [0, 1]"
                )));
            }
        }
        if !self.member_ids.is_empty() {
            if self.member_ids.len() != self.n_devices {
                return Err(FleetError::Config(format!(
                    "member_ids has {} entries for {} devices",
                    self.member_ids.len(),
                    self.n_devices
                )));
            }
            let unique: std::collections::BTreeSet<u64> = self.member_ids.iter().copied().collect();
            if unique.len() != self.member_ids.len() {
                return bad("member_ids must be unique");
            }
        }
        if self.watchdog_ticks == Some(0) {
            return bad("watchdog_ticks must be positive when set");
        }
        fault::validate_specs(&self.fault, self.n_devices).map_err(FleetError::Config)?;
        self.resilience.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    #[test]
    fn labels() {
        assert_eq!(SharingPolicy::Raw.label(), "raw");
        assert_eq!(
            SharingPolicy::Synthetic(ModelKind::KinetGan).label(),
            "synthetic:KiNETGAN"
        );
        assert_eq!(SharingPolicy::LocalOnly.label(), "local-only");
        assert_eq!(ModelKind::CtGan.label(), "CTGAN");
    }

    #[test]
    fn defaults_validate() {
        assert!(FleetConfig::default().validate().is_ok());
        assert!(FleetConfig::fast(SharingPolicy::Raw).validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad = |f: fn(&mut FleetConfig)| {
            let mut c = FleetConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.n_devices = 0).is_err());
        assert!(bad(|c| c.rows_per_device = 0).is_err());
        assert!(bad(|c| c.chunk_rows = 0).is_err());
        assert!(bad(|c| c.device_window = Some(0)).is_err());
        assert!(bad(|c| c.attack_fraction = 1.5).is_err());
        assert!(bad(|c| c.device_attack_fraction = vec![(9, 0.5)]).is_err());
        assert!(bad(|c| c.resilience.quorum_frac = 2.0).is_err());
        assert!(bad(|c| {
            c.fault = vec![DeviceFaultSpec::permanent(4, FaultKind::CrashAcquire)];
        })
        .is_err());
        assert!(bad(|c| {
            c.fault = vec![DeviceFaultSpec::transient(1, FaultKind::DropVocab, 0)];
        })
        .is_err());
    }

    #[test]
    fn config_errors_are_typed_and_exit_as_config_invalid() {
        let c = FleetConfig {
            n_devices: 0,
            ..FleetConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_CONFIG_INVALID);
        assert!(err.to_string().contains("n_devices"));
    }

    #[test]
    fn per_device_attack_fraction_overrides() {
        let cfg = FleetConfig {
            device_attack_fraction: vec![(1, 0.0), (2, 0.5)],
            ..FleetConfig::default()
        };
        assert_eq!(cfg.attack_fraction_for(0), 0.08);
        assert_eq!(cfg.attack_fraction_for(1), 0.0);
        assert_eq!(cfg.attack_fraction_for(2), 0.5);
    }

    #[test]
    fn member_ids_default_to_slot_indices() {
        let cfg = FleetConfig::default();
        assert_eq!(cfg.member_id(0), 0);
        assert_eq!(cfg.member_id(3), 3);
        let cfg = FleetConfig {
            n_devices: 2,
            member_ids: vec![7, 2],
            ..FleetConfig::default()
        };
        assert_eq!(cfg.member_id(0), 7);
        assert_eq!(cfg.member_id(1), 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn member_and_watchdog_validation() {
        let bad = |f: fn(&mut FleetConfig)| {
            let mut c = FleetConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(bad(|c| c.member_ids = vec![1, 2]).is_err(), "wrong arity");
        assert!(
            bad(|c| c.member_ids = vec![1, 2, 2, 3]).is_err(),
            "duplicate ids"
        );
        assert!(bad(|c| c.watchdog_ticks = Some(0)).is_err());
        assert!(FleetConfig {
            watchdog_ticks: Some(500),
            ..FleetConfig::default()
        }
        .validate()
        .is_ok());
    }
}
