//! Typed fleet errors.
//!
//! PR 5 left every fleet/nids failure as a bare `String`, which made the
//! orchestrator fail-fast by construction: a caller could not tell "the
//! config is invalid" from "device 7 diverged" from "the round lost
//! quorum", so the only safe reaction was to abort the whole round. The
//! recovery layer ([`crate::resilience`]) needs those distinctions — a
//! device fault degrades one device, a quorum loss is a loud round
//! failure, a config error is a caller bug — and the process gates need them as
//! distinct exit codes.

use kinet_data::DataError;
use std::error::Error;
use std::fmt;

/// What went wrong inside one device's round contribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceFaultKind {
    /// The device died while streaming its shard.
    CrashAcquire,
    /// The device exceeded the straggler tick budget.
    Straggler,
    /// The device's chunk stream failed (corrupt source error).
    Stream,
    /// Generator training or sampling failed.
    Training,
    /// Anything else (schema mismatch, seeding failure).
    Other,
}

impl DeviceFaultKind {
    /// Stable label used in reports and fault logs.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceFaultKind::CrashAcquire => "crash-acquire",
            DeviceFaultKind::Straggler => "straggler",
            DeviceFaultKind::Stream => "stream",
            DeviceFaultKind::Training => "training",
            DeviceFaultKind::Other => "other",
        }
    }
}

/// Any failure a fleet run can surface. `Display` renders a one-line
/// human message; [`Error::source`] exposes the underlying cause where one
/// exists; [`FleetError::exit_code`] maps the variant onto the process
/// exit-code contract shared by `sim_gate`, `chaos_gate` and
/// `service_gate`.
#[derive(Debug)]
pub enum FleetError {
    /// The configuration is internally inconsistent (caller bug; never
    /// retryable).
    Config(String),
    /// A data-layer failure outside any one device (test-stream
    /// generation, wire encoding, pooling).
    Data {
        /// What the fleet was doing when the data layer failed.
        context: String,
        /// The underlying error.
        source: DataError,
    },
    /// One device's contribution failed. Recorded per attempt by the
    /// recovery layer; only surfaces as a round error when quorum is lost.
    Device {
        /// Fleet index of the failing device.
        device_index: usize,
        /// Device identity.
        device: String,
        /// Failure class (fault accounting).
        kind: DeviceFaultKind,
        /// Human-readable detail.
        message: String,
    },
    /// Fewer devices reported than the quorum fraction requires; the
    /// round refuses to commit.
    QuorumLost {
        /// Devices whose contribution was accepted.
        reported: usize,
        /// Devices the quorum fraction requires.
        required: usize,
        /// Fleet size.
        n_devices: usize,
        /// `(device_index, last failure)` for every device that did not
        /// report: degraded, or quarantined (`"quarantined: <reason>"`).
        degraded: Vec<(usize, String)>,
    },
    /// A snapshot could not be encoded, committed, listed, or parsed.
    Checkpoint(String),
    /// Membership churn shrank the resident fleet below the configured
    /// minimum: the service refuses to keep scheduling rounds a quorum
    /// could never commit.
    MembershipCollapse {
        /// Round at which the fleet collapsed.
        round: usize,
        /// Members still present.
        members: usize,
        /// The configured membership floor.
        min_members: usize,
    },
    /// A round phase overran its watchdog deadline (virtual ticks); the
    /// round is aborted so the service can move on.
    Watchdog {
        /// Which phase hung: always `"acquire"`, the one phase that spends
        /// ticks.
        phase: String,
        /// Virtual ticks the phase actually spent.
        spent_ticks: u64,
        /// The configured deadline it blew through.
        deadline_ticks: u64,
    },
    /// An invariant the orchestrator relies on was violated.
    Internal(String),
}

/// Process exit codes shared by the fleet gates (`sim_gate`, `chaos_gate`,
/// `service_gate`): `1` stays reserved for violated gate assertions/floors.
pub const EXIT_CONFIG_INVALID: i32 = 2;
/// Exit code for a round that lost quorum.
pub const EXIT_QUORUM_LOST: i32 = 3;
/// Exit code for internal/device/data failures.
pub const EXIT_INTERNAL: i32 = 4;
/// Exit code for a resident service whose membership collapsed below the
/// configured floor.
pub const EXIT_MEMBERSHIP_COLLAPSE: i32 = 5;

impl FleetError {
    /// Convenience constructor for device faults.
    pub fn device(
        device_index: usize,
        device: impl Into<String>,
        kind: DeviceFaultKind,
        message: impl Into<String>,
    ) -> Self {
        FleetError::Device {
            device_index,
            device: device.into(),
            kind,
            message: message.into(),
        }
    }

    /// The process exit code a gate should die with when this error
    /// escapes: config-invalid, quorum-lost, and internal failures are
    /// distinguishable from shell scripts and CI alike.
    pub fn exit_code(&self) -> i32 {
        match self {
            FleetError::Config(_) => EXIT_CONFIG_INVALID,
            FleetError::QuorumLost { .. } => EXIT_QUORUM_LOST,
            FleetError::MembershipCollapse { .. } => EXIT_MEMBERSHIP_COLLAPSE,
            _ => EXIT_INTERNAL,
        }
    }
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(m) => write!(f, "invalid fleet config: {m}"),
            FleetError::Data { context, source } => write!(f, "{context}: {source}"),
            FleetError::Device {
                device_index,
                device,
                kind,
                message,
            } => write!(
                f,
                "device {device_index} ({device}) {}: {message}",
                kind.label()
            ),
            FleetError::QuorumLost {
                reported,
                required,
                n_devices,
                degraded,
            } => {
                write!(
                    f,
                    "quorum lost: {reported}/{n_devices} devices reported, {required} required"
                )?;
                for (d, why) in degraded {
                    write!(f, "; device {d}: {why}")?;
                }
                Ok(())
            }
            FleetError::Checkpoint(m) => write!(f, "checkpoint: {m}"),
            FleetError::MembershipCollapse {
                round,
                members,
                min_members,
            } => write!(
                f,
                "membership collapse at round {round}: {members} member(s) left, \
                 floor is {min_members}"
            ),
            FleetError::Watchdog {
                phase,
                spent_ticks,
                deadline_ticks,
            } => write!(
                f,
                "watchdog: {phase} phase spent {spent_ticks} virtual tick(s), \
                 deadline {deadline_ticks}"
            ),
            FleetError::Internal(m) => write!(f, "internal fleet error: {m}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Data { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<DataError> for FleetError {
    fn from(e: DataError) -> Self {
        FleetError::Data {
            context: "data layer".to_string(),
            source: e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = FleetError::device(3, "smart_plug", DeviceFaultKind::CrashAcquire, "injected");
        assert_eq!(
            e.to_string(),
            "device 3 (smart_plug) crash-acquire: injected"
        );
        let q = FleetError::QuorumLost {
            reported: 2,
            required: 3,
            n_devices: 4,
            degraded: vec![(1, "crash".into()), (2, "straggler".into())],
        };
        let s = q.to_string();
        assert!(s.contains("2/4 devices reported, 3 required"), "{s}");
        assert!(s.contains("device 1: crash"), "{s}");
    }

    #[test]
    fn source_chain_reaches_the_data_error() {
        let e = FleetError::Data {
            context: "pooling failed".into(),
            source: DataError::UnknownColumn("event".into()),
        };
        let src = e.source().expect("data errors carry a source");
        assert!(src.to_string().contains("event"));
        assert!(FleetError::Config("x".into()).source().is_none());
    }

    #[test]
    fn exit_codes_are_distinct() {
        let config = FleetError::Config("bad".into());
        let quorum = FleetError::QuorumLost {
            reported: 0,
            required: 1,
            n_devices: 1,
            degraded: Vec::new(),
        };
        let internal = FleetError::Internal("bug".into());
        let collapse = FleetError::MembershipCollapse {
            round: 2,
            members: 1,
            min_members: 3,
        };
        let codes = [
            config.exit_code(),
            quorum.exit_code(),
            internal.exit_code(),
            collapse.exit_code(),
        ];
        assert_eq!(
            codes,
            [
                EXIT_CONFIG_INVALID,
                EXIT_QUORUM_LOST,
                EXIT_INTERNAL,
                EXIT_MEMBERSHIP_COLLAPSE
            ]
        );
        assert!(codes.iter().all(|&c| c != 0 && c != 1));
        let unique: std::collections::BTreeSet<i32> = codes.into_iter().collect();
        assert_eq!(unique.len(), codes.len(), "exit codes stay distinct");
    }

    #[test]
    fn service_errors_render_their_numbers() {
        let collapse = FleetError::MembershipCollapse {
            round: 2,
            members: 1,
            min_members: 3,
        };
        let s = collapse.to_string();
        assert!(s.contains("round 2") && s.contains("1 member") && s.contains("floor is 3"));
        let wd = FleetError::Watchdog {
            phase: "acquire".into(),
            spent_ticks: 5000,
            deadline_ticks: 1000,
        };
        let s = wd.to_string();
        assert!(s.contains("acquire") && s.contains("5000") && s.contains("1000"));
        assert_eq!(wd.exit_code(), EXIT_INTERNAL);
    }
}
