//! Seeded, deterministic fault injection for fleet rounds.
//!
//! Real edge fleets drop out, straggle, and emit garbage as the *normal*
//! case (FLVision-style deployments; NE-GM-GAN's non-exhaustive classes).
//! This module makes those behaviors first-class and — crucially —
//! **reproducible**: a [`FaultPlan`] is a pure function of the fleet seed
//! and the scripted [`DeviceFaultSpec`]s, so a chaotic run is exactly as
//! bit-reproducible across `KINET_THREADS` values as a healthy one. Time
//! never comes from the wall clock: stragglers and retry backoff spend
//! ticks on a [`VirtualClock`], keeping the `wall-clock` lint rule green
//! and the fingerprint stable.
//!
//! Fault taxonomy (DESIGN.md §2.7):
//!
//! | kind | phase | effect |
//! |---|---|---|
//! | `CrashAcquire` | acquire | shard stream dies mid-chunk |
//! | `CorruptChunks` | acquire | NaN-poisoned numeric cells mid-stream |
//! | `PoisonShareNan` | share | non-finite cells in the released table |
//! | `DropVocab` | union | vocab message never arrives |
//! | `Straggle` | acquire | device stalls `magnitude` virtual ticks |
//!
//! Only acquisition faults fire per attempt: acquisition is the one phase
//! the orchestrator retries.

use kinet_data::stream::ChunkFaultSpec;
use kinet_data::Table;
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fault persisting for this many attempts never heals.
pub const PERMANENT: usize = usize::MAX;

/// The injectable fault classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Shard stream dies partway through acquisition.
    CrashAcquire,
    /// Numeric cells streamed after a cut-off point arrive as NaN.
    CorruptChunks,
    /// The released share carries non-finite numeric cells.
    PoisonShareNan,
    /// The condition-union vocabulary message is lost.
    DropVocab,
    /// The device stalls for `magnitude` virtual ticks per attempt.
    Straggle,
}

impl FaultKind {
    /// Stable label for plans, logs, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CrashAcquire => "crash-acquire",
            FaultKind::CorruptChunks => "corrupt-chunks",
            FaultKind::PoisonShareNan => "poison-share-nan",
            FaultKind::DropVocab => "drop-vocab",
            FaultKind::Straggle => "straggle",
        }
    }
}

/// One explicitly scripted fault.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceFaultSpec {
    /// Target device index.
    pub device_index: usize,
    /// What breaks.
    pub kind: FaultKind,
    /// How many consecutive acquisition attempts the fault fires on
    /// before healing ([`PERMANENT`] never heals). Ignored by
    /// `PoisonShareNan` and `DropVocab`: they strike phases that run once
    /// per device, so any fault of those kinds fires.
    pub attempts: usize,
    /// Kind-specific intensity: ticks for `Straggle`, percent streamed
    /// clean before corruption for `CorruptChunks`/`CrashAcquire`. `None`
    /// lets the plan draw one from the seeded RNG.
    pub magnitude: Option<u64>,
}

impl DeviceFaultSpec {
    /// A permanent fault on `device_index`.
    pub fn permanent(device_index: usize, kind: FaultKind) -> Self {
        Self {
            device_index,
            kind,
            attempts: PERMANENT,
            magnitude: None,
        }
    }

    /// A fault that fires on the first `attempts` attempts, then heals —
    /// the transient-fault shape retry exists for.
    pub fn transient(device_index: usize, kind: FaultKind, attempts: usize) -> Self {
        Self {
            device_index,
            kind,
            attempts,
            magnitude: None,
        }
    }

    /// Sets the kind-specific magnitude.
    pub fn with_magnitude(mut self, magnitude: u64) -> Self {
        self.magnitude = Some(magnitude);
        self
    }
}

/// Validates scripted fault targets against the fleet size.
///
/// # Errors
///
/// Returns a message naming the first invalid spec.
pub fn validate_specs(specs: &[DeviceFaultSpec], n_devices: usize) -> Result<(), String> {
    for spec in specs {
        if spec.device_index >= n_devices {
            return Err(format!(
                "fault spec targets unknown device {}",
                spec.device_index
            ));
        }
        if spec.attempts == 0 {
            return Err(format!(
                "fault spec for device {} fires on zero attempts",
                spec.device_index
            ));
        }
    }
    Ok(())
}

/// One fault the plan will inject.
#[derive(Clone, Debug, PartialEq)]
pub struct PlannedFault {
    /// What breaks.
    pub kind: FaultKind,
    /// Attempts the fault fires on before healing.
    pub attempts: usize,
    /// Kind-specific intensity (see [`DeviceFaultSpec::magnitude`]).
    pub magnitude: u64,
}

/// Everything that will go wrong on one device.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DevicePlan {
    faults: Vec<PlannedFault>,
}

impl DevicePlan {
    /// `true` when `kind` fires on (zero-based) `attempt`.
    pub fn fires(&self, kind: FaultKind, attempt: usize) -> bool {
        self.faults
            .iter()
            .any(|f| f.kind == kind && attempt < f.attempts)
    }

    /// The magnitude of `kind`, when planned (regardless of attempt).
    pub fn magnitude(&self, kind: FaultKind) -> Option<u64> {
        self.faults
            .iter()
            .find(|f| f.kind == kind)
            .map(|f| f.magnitude)
    }

    /// The planned faults.
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// The chunk-stream fault wrapper spec for one acquisition `attempt`
    /// over a shard of `rows` rows. Magnitudes are percentages of the
    /// shard: the share streamed clean before the fault strikes. A healthy
    /// attempt yields a clean (pass-through) spec.
    pub fn fault_spec_for(&self, attempt: usize, rows: usize) -> ChunkFaultSpec {
        let offset = |magnitude: Option<u64>| {
            // At least one clean row so the failure is observably
            // mid-stream, never a trivially empty source.
            (rows * magnitude.unwrap_or(50).min(100) as usize / 100).max(1)
        };
        let mut spec = ChunkFaultSpec::default();
        if self.fires(FaultKind::CrashAcquire, attempt) {
            spec.fail_after = Some(offset(self.magnitude(FaultKind::CrashAcquire)));
        }
        if self.fires(FaultKind::CorruptChunks, attempt) {
            spec.poison_from = Some(offset(self.magnitude(FaultKind::CorruptChunks)));
        }
        spec
    }
}

/// The deterministic fault schedule of one run: which device breaks, how,
/// on which attempts, and how hard. Derived once from
/// `(seed, n_devices, specs)` before any device task starts, so the plan
/// is identical for every thread count and every re-run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    devices: Vec<DevicePlan>,
}

/// Domain-separation salt for fault randomness (magnitude draws must never
/// perturb the data/model RNG streams).
const FAULT_SALT: u64 = 0x0fa1_7000;

impl FaultPlan {
    /// Derives the plan. Deterministic: same inputs, same plan. Each
    /// device draws the magnitudes its specs leave open from its own
    /// seeded RNG, in spec order, so a spec on one device never reshuffles
    /// another device's draws.
    pub fn derive(seed: u64, n_devices: usize, specs: &[DeviceFaultSpec]) -> Self {
        let mut devices = vec![DevicePlan::default(); n_devices];
        for (d, plan) in devices.iter_mut().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(seed ^ FAULT_SALT ^ (d as u64).wrapping_mul(0x9e37_79b9));
            for spec in specs.iter().filter(|s| s.device_index == d) {
                let magnitude = spec
                    .magnitude
                    .unwrap_or_else(|| default_magnitude(spec.kind, &mut rng));
                plan.faults.push(PlannedFault {
                    kind: spec.kind,
                    attempts: spec.attempts,
                    magnitude,
                });
            }
        }
        Self { devices }
    }

    /// The plan for device `d`.
    pub fn device(&self, d: usize) -> &DevicePlan {
        &self.devices[d]
    }

    /// Canonical one-line-per-fault rendering for the report's injected
    /// list (sorted by device, then plan order).
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (d, plan) in self.devices.iter().enumerate() {
            for f in &plan.faults {
                let persistence = if f.attempts == PERMANENT {
                    "permanent".to_string()
                } else {
                    format!("{} attempt(s)", f.attempts)
                };
                out.push(format!(
                    "device {d}: {} ({persistence}, magnitude {})",
                    f.kind.label(),
                    f.magnitude
                ));
            }
        }
        out
    }
}

/// Seeded default magnitudes: straggles draw around the default straggler
/// budget (some absorb, some trip), corruption/crash strike after 20–70%
/// streamed clean.
fn default_magnitude(kind: FaultKind, rng: &mut StdRng) -> u64 {
    match kind {
        FaultKind::Straggle => rng.random_range(500..4000u64),
        FaultKind::CorruptChunks | FaultKind::CrashAcquire => rng.random_range(20..70u64),
        _ => 0,
    }
}

/// The injectable storage-layer fault classes, targeting the snapshot
/// store's `write_atomic` path (DESIGN.md §2.8). They live in their own
/// enum, not [`FaultKind`], because they strike the store, not a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// Only a prefix of the record reaches the medium (torn/truncated
    /// write): the checksum no longer matches.
    TornWrite,
    /// One bit of the stored record flips in place.
    BitFlip,
    /// The rename never becomes durable but the previous object survives:
    /// the store silently retains the *stale generation*.
    StaleWrite,
    /// The rename is lost after the old object was already unlinked: the
    /// object vanishes entirely (fsync-lost rename).
    LostWrite,
}

impl StorageFaultKind {
    /// Stable label for plans, logs, and reports.
    pub fn label(&self) -> &'static str {
        match self {
            StorageFaultKind::TornWrite => "torn-write",
            StorageFaultKind::BitFlip => "bit-flip",
            StorageFaultKind::StaleWrite => "stale-write",
            StorageFaultKind::LostWrite => "lost-write",
        }
    }

    /// Every kind, in declaration order (proptests walk this).
    pub fn all() -> [StorageFaultKind; 4] {
        [
            StorageFaultKind::TornWrite,
            StorageFaultKind::BitFlip,
            StorageFaultKind::StaleWrite,
            StorageFaultKind::LostWrite,
        ]
    }
}

/// One scripted storage fault: the `write_index`-th `write_atomic` call
/// (0-based, counted across the store's lifetime) is sabotaged. All
/// storage faults are *silent* — the write reports success and the damage
/// is only discoverable at load time, which is exactly what recovery must
/// survive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageFaultSpec {
    /// Which write breaks.
    pub write_index: usize,
    /// How it breaks.
    pub kind: StorageFaultKind,
    /// Kind-specific intensity: percent of the record surviving for
    /// [`StorageFaultKind::TornWrite`], byte offset (mod record length)
    /// for [`StorageFaultKind::BitFlip`]. Ignored by the others.
    pub magnitude: u64,
}

impl StorageFaultSpec {
    /// A fault on write `write_index` with the default magnitude (half the
    /// record torn away; bit flip mid-record).
    pub fn new(write_index: usize, kind: StorageFaultKind) -> Self {
        Self {
            write_index,
            kind,
            magnitude: 50,
        }
    }

    /// Sets the kind-specific magnitude.
    pub fn with_magnitude(mut self, magnitude: u64) -> Self {
        self.magnitude = magnitude;
        self
    }
}

/// Poisons roughly half of `share`'s rows in place, deterministically from
/// `seed`: every numeric cell of an afflicted row becomes NaN, the
/// diverged-generator signature. No-op on tables without numeric columns.
pub fn poison_share(share: &mut Table, seed: u64) {
    let numeric: Vec<usize> = share
        .schema()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind() == kinet_data::ColumnKind::Continuous)
        .map(|(i, _)| i)
        .collect();
    if numeric.is_empty() || share.is_empty() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
    for r in 0..share.n_rows() {
        if rng.random_range(0.0..1.0f64) < 0.5 {
            let mut row = share.row(r);
            for &c in &numeric {
                row[c] = kinet_data::Value::num(f64::NAN);
            }
            share
                .set_row(r, row)
                .expect("rewriting a row with its own schema cannot fail");
        }
    }
}

/// A deterministic, shareable tick counter — the run's only notion of
/// time. Devices add their fault/backoff ticks; the total is a sum of
/// per-device deterministic contributions, hence independent of worker
/// interleaving and safe to fingerprint.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock at tick zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spends `ticks` of simulated time.
    pub fn advance(&self, ticks: u64) {
        self.0.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Total ticks spent so far.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::{ColumnKind, ColumnMeta, Schema, Value};

    #[test]
    fn disabled_config_plans_nothing() {
        let plan = FaultPlan::derive(42, 8, &[]);
        assert!(plan.describe().is_empty());
        assert!((0..8).all(|d| plan.device(d).faults().is_empty()));
    }

    #[test]
    fn plan_is_deterministic_in_seed_and_config() {
        let specs: Vec<DeviceFaultSpec> = [
            FaultKind::CrashAcquire,
            FaultKind::CorruptChunks,
            FaultKind::PoisonShareNan,
            FaultKind::Straggle,
            FaultKind::DropVocab,
        ]
        .into_iter()
        .enumerate()
        .map(|(d, kind)| DeviceFaultSpec::transient(d, kind, 1))
        .collect();
        let a = FaultPlan::derive(7, 16, &specs);
        let b = FaultPlan::derive(7, 16, &specs);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::derive(8, 16, &specs);
        assert_ne!(a, c, "different seed, different magnitudes");
        assert_eq!(a.describe().len(), specs.len());
        // A spec on another device never reshuffles device 0's draws.
        let mut more = specs.clone();
        more.push(DeviceFaultSpec::permanent(9, FaultKind::Straggle));
        let d = FaultPlan::derive(7, 16, &more);
        assert_eq!(a.device(0), d.device(0));
        // An explicit magnitude is taken as given.
        let fixed = [DeviceFaultSpec::permanent(2, FaultKind::Straggle).with_magnitude(40)];
        let plan = FaultPlan::derive(7, 4, &fixed);
        assert_eq!(plan.device(2).magnitude(FaultKind::Straggle), Some(40));
    }

    #[test]
    fn transient_faults_heal_after_their_attempts() {
        let plan = FaultPlan::derive(
            3,
            1,
            &[DeviceFaultSpec::transient(0, FaultKind::Straggle, 2)],
        );
        let dp = plan.device(0);
        assert!(dp.fires(FaultKind::Straggle, 0));
        assert!(dp.fires(FaultKind::Straggle, 1));
        assert!(!dp.fires(FaultKind::Straggle, 2), "healed on attempt 2");
        assert!(!dp.fires(FaultKind::CrashAcquire, 0), "unplanned kind");
        let permanent = FaultPlan::derive(
            3,
            1,
            &[DeviceFaultSpec::permanent(0, FaultKind::CorruptChunks)],
        );
        assert!(permanent.device(0).fires(FaultKind::CorruptChunks, 999));
    }

    fn share() -> Table {
        let schema = Schema::new(vec![
            ColumnMeta::categorical("event"),
            ColumnMeta::continuous("dst_port"),
            ColumnMeta::continuous("bytes"),
        ]);
        Table::from_rows(
            schema,
            (0..40)
                .map(|i| {
                    vec![
                        Value::cat("heartbeat"),
                        Value::num(8080.0),
                        Value::num(i as f64),
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn poison_nan_hits_numeric_cells_deterministically() {
        let mut a = share();
        let mut b = share();
        poison_share(&mut a, 5);
        poison_share(&mut b, 5);
        let nan_rows = |t: &Table, col: &str| -> Vec<bool> {
            t.num_column(col)
                .unwrap()
                .iter()
                .map(|v| v.is_nan())
                .collect()
        };
        assert_eq!(
            nan_rows(&a, "dst_port"),
            nan_rows(&b, "dst_port"),
            "deterministic poisoning"
        );
        let hit = nan_rows(&a, "dst_port").iter().filter(|&&n| n).count();
        assert!(hit > 5 && hit < 40, "roughly half the rows: {hit}");
        // The categorical column is untouched.
        assert!(a
            .cat_column("event")
            .unwrap()
            .iter()
            .all(|e| e == "heartbeat"));
        // Every numeric cell of an afflicted row is hit, and the seed
        // picks the rows.
        assert_eq!(nan_rows(&a, "dst_port"), nan_rows(&a, "bytes"));
        let mut c = share();
        poison_share(&mut c, 6);
        assert_ne!(nan_rows(&a, "dst_port"), nan_rows(&c, "dst_port"));
    }

    #[test]
    fn virtual_clock_sums_across_clones() {
        let clock = VirtualClock::new();
        let other = clock.clone();
        clock.advance(100);
        other.advance(23);
        assert_eq!(clock.total(), 123);
        assert_eq!(other.total(), 123);
    }

    #[test]
    fn schema_kinds_used_by_poisoning_exist() {
        // Guard the ColumnKind contract poison_share relies on.
        let t = share();
        let kinds: Vec<ColumnKind> = t.schema().iter().map(|c| c.kind()).collect();
        assert_eq!(kinds[0], ColumnKind::Categorical);
        assert_eq!(kinds[1], ColumnKind::Continuous);
    }
}
