//! Fleet-scale distributed training orchestration for the KiNETGAN
//! reproduction.
//!
//! The paper's deployment story (§I, §VI) is a *fleet*: many devices, each
//! observing only its own traffic, collaborating on a global NIDS by
//! sharing synthetic — never raw — records. [`FleetSim`] runs one such
//! round for a [`FleetConfig`] and returns a [`FleetReport`]; the Table-1
//! deployment (4 devices × 500 rows, raw vs synthetic vs local-only
//! sharing) is `FleetConfig { n_devices: 4, rows_per_device: 500, policy,
//! ..FleetConfig::default() }`. Beyond that round, the crate provides:
//!
//! * **Streaming shards** — device traffic arrives as fixed-size chunks
//!   ([`kinet_data::stream::ChunkSource`]); a device's decoded working set
//!   is bounded by `chunk + window`, not by the shard, so 32 devices × 5k
//!   rows (and beyond) run in bounded memory.
//! * **Pool-worker scheduling** ([`schedule`]) — device fits run across
//!   `KINET_THREADS` task workers, with results merged in device-index
//!   order so reports are bit-identical for every thread count.
//! * **The condition-union protocol** ([`union`]) — devices exchange class
//!   vocabularies (names only), the fleet computes the union, and devices
//!   missing a class receive knowledge-graph-synthesized seed rows so
//!   their generator and its sampling-time condition drawer can emit it;
//!   coverage accounting included.
//! * **Reloadable run snapshots** — [`FleetReport`] round-trips through
//!   the vendored serde JSON deserializer, so gates diff fresh runs
//!   against persisted baselines.
//! * **Fault injection and recovery** ([`fault`], [`resilience`]) —
//!   scripted, seeded fault plans (crashes, corrupt streams, poisoned
//!   shares, vocab drops, stragglers on a virtual clock), typed
//!   [`FleetError`]s, bounded retry with capped backoff, share
//!   validation + quarantine, and quorum aggregation so a round degrades
//!   instead of dying with the first bad device.
//! * **The resident service** ([`service`], [`storage`]) — a
//!   [`FleetService`] owns many rounds: durable generation-stamped
//!   snapshots with restart-resume (torn/corrupted records roll back to
//!   the newest intact generation), scripted membership churn with
//!   per-round quorum re-derivation, virtual-tick watchdog deadlines
//!   that abort a round without killing the service, and degraded-mode
//!   serving — flow batches keep being answered from the last committed
//!   generation, stamped with their staleness, while in-flight rounds
//!   abort or fail. A detector scores flow batches through
//!   [`ServingHandle::answer`], which returns a [`BatchScore`].

pub mod config;
pub mod error;
pub mod fault;
pub mod report;
pub mod resilience;
pub mod schedule;
pub mod service;
pub mod sim;
pub mod storage;
pub mod union;

pub use config::{FleetConfig, ModelKind, SharingPolicy};
pub use error::{
    DeviceFaultKind, FleetError, EXIT_CONFIG_INVALID, EXIT_INTERNAL, EXIT_MEMBERSHIP_COLLAPSE,
    EXIT_QUORUM_LOST,
};
pub use fault::{
    DeviceFaultSpec, FaultKind, FaultPlan, StorageFaultKind, StorageFaultSpec, VirtualClock,
};
pub use report::{
    DeviceReport, DeviceTrainingDiag, FaultReport, FleetReport, RoundRecord, RoundServingStats,
    RoundVerdict, ServiceReport, StorageFaultReport, UnionReport,
};
pub use resilience::{QuarantineReason, ResilienceConfig};
pub use service::{
    BatchScore, ChurnConfig, ChurnPlan, FleetService, ServiceConfig, ServingConfig, ServingHandle,
    ServingModel,
};
pub use sim::FleetSim;
pub use storage::{DirStorage, FaultStorage, MemStorage, Snapshot, SnapshotStore, Storage};
