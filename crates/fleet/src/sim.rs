//! The fleet orchestrator: streaming shard acquisition, pool-worker device
//! scheduling, the condition-union exchange, and quorum aggregation.
//!
//! A run has three phases:
//!
//! 1. **Acquire** (parallel): every device streams its shard chunk-by-chunk
//!    ([`kinet_data::stream`]) into a bounded working window, publishing
//!    its observed class vocabulary. No device ever holds more decoded
//!    rows than `chunk + window`.
//! 2. **Union** (aggregator): surviving class vocabularies fold into their
//!    union; participating devices missing a class receive KG-synthesized
//!    seed rows for it ([`crate::union`]).
//! 3. **Prepare & pool** (parallel, then aggregator): devices train/sample
//!    (or ship raw windows), results are merged **in device-index order**
//!    (completion order is scheduling noise), shares are validated and
//!    quarantined where bad, and the pooled table is scored and evaluated
//!    against a held-out global stream once quorum is met.
//!
//! Faults are injected from the seeded [`FaultPlan`] and recovered through
//! the [`crate::resilience`] policy: failed acquisition attempts retry with
//! capped backoff on the virtual clock, bad shares are quarantined before
//! pooling, and the round commits when ≥ `quorum_frac` devices report —
//! degraded devices are recorded, not fatal. Only acquisition retries: a
//! fault there (a crashed or corrupt stream, a straggler) can heal on the
//! next attempt, while preparation is a pure function of the config and
//! the acquired shard, so a second try would replay its failure exactly.
//! Every random draw derives from `seed` and the device index, and all
//! waiting is virtual ticks, so the full [`FleetReport`] fingerprint is
//! bit-identical for every `KINET_THREADS` value even under a non-trivial
//! fault plan.

use crate::config::{FleetConfig, ModelKind, SharingPolicy};
use crate::error::{DeviceFaultKind, FleetError};
use crate::fault::{poison_share, FaultKind, FaultPlan, VirtualClock};
use crate::report::{
    DeviceReport, DeviceTrainingDiag, FaultReport, FleetReport, UnionReport, DEVICE_OK,
};
use crate::resilience::{self, backoff_ticks, MAX_RETRIES, STRAGGLER_BUDGET_TICKS};
use crate::{schedule, union};
use kinet_baselines::{common::BaselineConfig, CtGan};
use kinet_data::stream::{
    ChunkFaultSpec, FaultedSource, PeakRows, Reservoir, StreamValidity, StreamingShard,
};
use kinet_data::synth::TabularSynthesizer;
use kinet_data::{DataError, Table};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_eval::utility::evaluate_nids;
use kinet_obs::{kv, Recorder};
use kinetgan::{KinetGan, KinetGanConfig};
use std::collections::BTreeSet;
use std::time::Instant;

const DEVICE_CYCLE: [&str; 4] = ["blink_camera", "smart_plug", "motion_sensor", "tag_manager"];

/// Everything phase 1 learns about a device before any training happens.
struct DeviceStage {
    device: String,
    local: Table,
    vocab: BTreeSet<String>,
    shard_rows: usize,
}

/// A device's phase-3 product.
struct DeviceOutcome {
    share: Option<Table>,
    prep_ms: f64,
    local_eval: Option<(f64, f64)>,
    seeded_classes: Vec<String>,
    diag: Option<DeviceTrainingDiag>,
}

/// One device's settled acquisition plus its recovery accounting.
struct Acquired {
    result: Result<DeviceStage, FleetError>,
    retries: usize,
    observed: Vec<String>,
}

/// One device's settled preparation plus what it observed: its failure,
/// or the share poisoning the plan scripted.
type Prepared = (Result<DeviceOutcome, FleetError>, Option<String>);

/// The fleet simulator over the lab IoT deployment.
#[derive(Clone, Debug)]
pub struct FleetSim {
    config: FleetConfig,
}

impl FleetSim {
    /// Creates a simulator.
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs the fleet end to end and reports metrics.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for invalid configuration,
    /// [`FleetError::QuorumLost`] when fewer devices report than the
    /// resilience policy requires, and [`FleetError::Data`] /
    /// [`FleetError::Internal`] for aggregator-side failures. Per-device
    /// faults are retried and degraded, not returned — they surface in
    /// [`FleetReport::fault`].
    pub fn run(&self) -> Result<FleetReport, FleetError> {
        self.run_detailed().map(|(report, _)| report)
    }

    /// [`FleetSim::run`], additionally returning the pooled table the
    /// global detector was trained on (`None` for local-only policies).
    /// The resident service feeds it to the serving-model trainer so the
    /// detection path scores against exactly the committed pool.
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetSim::run`], plus [`FleetError::Watchdog`]
    /// when a phase overruns [`FleetConfig::watchdog_ticks`].
    pub fn run_detailed(&self) -> Result<(FleetReport, Option<Table>), FleetError> {
        self.run_recorded(&mut Recorder::new())
    }

    /// [`FleetSim::run_detailed`], appending the round's phase spans and
    /// retry, quarantine and quorum events to `journal`. Every record is
    /// appended here, on the orchestrator thread, at a phase barrier, so
    /// the journal is identical for every `KINET_THREADS` value; the
    /// report is identical to an unrecorded run's.
    ///
    /// # Errors
    ///
    /// Same contract as [`FleetSim::run_detailed`].
    pub fn run_recorded(
        &self,
        journal: &mut Recorder,
    ) -> Result<(FleetReport, Option<Table>), FleetError> {
        let cfg = &self.config;
        cfg.validate()?;
        // kinet-lint: allow(wall-clock) — feeds only timing fields that deterministic_fingerprint() excludes
        // kinet-lint: allow(determinism-taint) — same contract: the reading lands in excluded timing fields only
        let start = Instant::now();
        let peak = PeakRows::new();
        let plan = FaultPlan::derive(cfg.seed, cfg.n_devices, &cfg.fault);
        let clock = VirtualClock::new();

        // Global held-out stream for evaluation (what the deployed NIDS
        // will face). Bounded by `test_records`, so generated eagerly.
        let test = LabSimulator::new(LabSimConfig {
            n_records: cfg.test_records,
            seed: cfg.seed ^ 0xfeed,
            ..LabSimConfig::default()
        })
        .generate()
        .map_err(|e| FleetError::Data {
            context: "test stream generation failed".into(),
            source: e,
        })?;

        // ---- phase 1: acquire shards (streaming, parallel, retried) ----
        // Device closures record nothing: the orchestrator journals their
        // retries and stamps spans at the phase barriers, where the order
        // and the clock value are settled for every thread count.
        journal.span_open("fleet.round", 0, &[kv("devices", cfg.n_devices as u64)]);
        journal.span_open("fleet.acquire", 0, &[]);
        let acquired: Vec<Acquired> = schedule::run_indexed_settled(cfg.n_devices, |d| {
            self.acquire_with_recovery(d, &peak, &plan, &clock)
        });
        record_retries(journal, acquired.iter().map(|a| a.retries));
        let acquire_ticks = clock.total();
        let acquired_rows: u64 = acquired
            .iter()
            .filter_map(|a| a.result.as_ref().ok())
            .map(|s| s.shard_rows as u64)
            .sum();
        journal.span_close(
            "fleet.acquire",
            acquire_ticks,
            &[kv("ticks", acquire_ticks), kv("rows", acquired_rows)],
        );
        // Acquisition is the only phase that spends ticks, so it is the
        // only one the watchdog can catch overrunning.
        if let Some(deadline_ticks) = cfg.watchdog_ticks.filter(|&t| acquire_ticks > t) {
            return Err(FleetError::Watchdog {
                phase: "acquire".to_string(),
                spent_ticks: acquire_ticks,
                deadline_ticks,
            });
        }

        // ---- phase 2: condition-union exchange over surviving vocabs ----
        journal.span_open("fleet.union", acquire_ticks, &[]);
        let mut union_events: Vec<Option<String>> = vec![None; cfg.n_devices];
        let union_classes = if cfg.union {
            let mut vocabs = Vec::new();
            for (d, a) in acquired.iter().enumerate() {
                let Ok(stage) = &a.result else { continue };
                if plan.device(d).fires(FaultKind::DropVocab, 0) {
                    union_events[d] = Some(format!(
                        "device {d} ({}) drop-vocab: vocabulary message lost; union falls back \
                         to surviving vocabs",
                        stage.device
                    ));
                    continue;
                }
                vocabs.push(&stage.vocab);
            }
            union::merge_vocabs(vocabs)
        } else {
            BTreeSet::new()
        };
        // With the union off, `union_classes` is empty and nothing is missing.
        let missing: Vec<Vec<String>> = acquired
            .iter()
            .map(|a| match &a.result {
                Ok(stage) => union::missing_classes(&stage.vocab, &union_classes),
                Err(_) => Vec::new(),
            })
            .collect();
        // Union and preparation spend no ticks: their spans close at the
        // acquire phase's clock with `ticks` 0.
        let union_seeded: u64 = missing.iter().map(|m| m.len() as u64).sum();
        journal.span_close(
            "fleet.union",
            acquire_ticks,
            &[
                kv("ticks", 0),
                kv("classes", union_classes.len() as u64),
                kv("seeded", union_seeded),
            ],
        );

        // ---- phase 3: prepare shares (parallel, once per device) ----
        journal.span_open("fleet.prepare", acquire_ticks, &[]);
        let prepared: Vec<Option<Prepared>> =
            schedule::run_indexed_settled(cfg.n_devices, |d| match &acquired[d].result {
                Ok(stage) => Some(self.prepare_with_faults(d, stage, &missing[d], &test, &plan)),
                Err(_) => None,
            });
        journal.span_close("fleet.prepare", acquire_ticks, &[kv("ticks", 0)]);

        // ---- aggregation, in device-index order ----
        let out = self.aggregate(
            AggregateInput {
                acquired,
                union_events,
                prepared,
                union_classes,
                plan: &plan,
                clock: &clock,
                test: &test,
                peak: &peak,
                start,
            },
            journal,
        );
        journal.span_close(
            "fleet.round",
            clock.total(),
            &[kv("ticks", clock.total()), kv("ok", u64::from(out.is_ok()))],
        );
        out
    }

    /// Phase 1 for one device, driven through the retry policy. Straggler
    /// stalls and retry backoff spend virtual ticks; every attempt rebuilds
    /// the stream from the same seed, so a healed fault yields exactly the
    /// shard a healthy run would have.
    fn acquire_with_recovery(
        &self,
        d: usize,
        peak: &PeakRows,
        plan: &FaultPlan,
        clock: &VirtualClock,
    ) -> Acquired {
        let cfg = &self.config;
        let device = DEVICE_CYCLE[cfg.member_id(d) as usize % DEVICE_CYCLE.len()];
        let dp = plan.device(d);
        let mut observed = Vec::new();
        let mut attempt = 0;
        loop {
            let result = 'attempt: {
                if dp.fires(FaultKind::Straggle, attempt) {
                    let stall = dp.magnitude(FaultKind::Straggle).unwrap_or(0);
                    let budget = STRAGGLER_BUDGET_TICKS;
                    if stall > budget {
                        // The orchestrator waits out the budget, then gives
                        // up on the attempt.
                        clock.advance(budget);
                        observed.push(format!(
                            "device {d} ({device}) straggler: stalled {stall} ticks, budget \
                             {budget} [attempt {attempt}]"
                        ));
                        break 'attempt Err(FleetError::device(
                            d,
                            device,
                            DeviceFaultKind::Straggler,
                            format!("stalled {stall} virtual ticks (budget {budget})"),
                        ));
                    }
                    // Slow but within budget: absorbed, not a failure.
                    clock.advance(stall);
                    observed.push(format!(
                        "device {d} ({device}) straggler: stalled {stall} ticks, absorbed \
                         within budget {budget} [attempt {attempt}]"
                    ));
                }
                let spec = dp.fault_spec_for(attempt, cfg.rows_per_device);
                self.acquire_device(d, peak, spec).map_err(|e| {
                    let kind = if dp.fires(FaultKind::CrashAcquire, attempt) {
                        DeviceFaultKind::CrashAcquire
                    } else {
                        DeviceFaultKind::Stream
                    };
                    let err = FleetError::device(d, device, kind, e.to_string());
                    observed.push(format!("{err} [attempt {attempt}]"));
                    err
                })
            };
            // The one retry step: back off and try again until the attempt
            // succeeds or the retries run out.
            if result.is_ok() || attempt == MAX_RETRIES {
                return Acquired {
                    result,
                    retries: attempt,
                    observed,
                };
            }
            clock.advance(backoff_ticks(attempt));
            attempt += 1;
        }
    }

    /// One acquisition attempt: stream the (possibly fault-wrapped) shard
    /// into a bounded window and record the observed class vocabulary.
    /// Corrupt chunks are caught by a device-side integrity scan before
    /// they can enter the working window.
    fn acquire_device(
        &self,
        d: usize,
        peak: &PeakRows,
        fault_spec: ChunkFaultSpec,
    ) -> Result<DeviceStage, DataError> {
        let cfg = &self.config;
        // Seed and identity key off the *stable member id*, not the slot,
        // so a resident member keeps its shard stream across churn.
        let id = cfg.member_id(d);
        let device = DEVICE_CYCLE[id as usize % DEVICE_CYCLE.len()].to_string();
        let seed = cfg.seed.wrapping_add(id.wrapping_mul(101));
        let sim = LabSimulator::new(LabSimConfig {
            n_records: cfg.rows_per_device,
            seed,
            attack_fraction: cfg.attack_fraction_for(d),
        });
        let source = FaultedSource::new(
            sim.device_chunk_source(&device, cfg.rows_per_device),
            fault_spec,
        );
        let mut shard = StreamingShard::new(source, cfg.chunk_rows, peak.clone());
        let scope = LabSimulator::label_column();
        let numeric: Vec<String> = LabSimulator::schema()
            .continuous_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut vocab = BTreeSet::new();
        let mut rows_scanned = 0usize;
        // The decoded working set a device retains while streaming.
        enum Window {
            /// Bounded working set: a deterministic uniform sample.
            Bounded(Reservoir),
            /// Pre-fleet behavior: the whole shard decoded at once.
            Eager(Table),
        }
        let mut window = match cfg.device_window {
            Some(cap) => {
                Window::Bounded(Reservoir::new(LabSimulator::schema(), cap, seed ^ 0x5a3d))
            }
            None => Window::Eager(Table::empty(LabSimulator::schema())),
        };
        shard.for_each_chunk(|chunk| -> Result<usize, DataError> {
            // Device-side integrity check: a corrupt chunk must never
            // reach the working window (or, later, a training table).
            for col in &numeric {
                let bad = chunk
                    .num_column(col)?
                    .iter()
                    .filter(|v| !v.is_finite())
                    .count();
                if bad > 0 {
                    return Err(DataError::Parse(format!(
                        "corrupt chunk: {bad} non-finite {col} cell(s) near row {rows_scanned}"
                    )));
                }
            }
            rows_scanned += chunk.n_rows();
            for v in chunk.cat_column(scope)? {
                if !vocab.contains(v) {
                    vocab.insert(v.clone());
                }
            }
            match &mut window {
                Window::Bounded(reservoir) => {
                    reservoir.offer(chunk)?;
                    Ok(reservoir.len())
                }
                Window::Eager(full) => {
                    full.append(chunk)?;
                    Ok(full.n_rows())
                }
            }
        })?;
        let local = match window {
            Window::Bounded(reservoir) => reservoir.into_table(),
            Window::Eager(full) => full,
        };
        Ok(DeviceStage {
            device,
            local,
            vocab,
            shard_rows: shard.rows_seen(),
        })
    }

    /// Phase 3 for one device: one preparation, then the share poisoning
    /// the plan scripts, left for the aggregator's quarantine to catch.
    /// A failure is not retried: [`FleetSim::prepare_device`] draws from
    /// the same seed every time, so a retry would replay it bit for bit.
    fn prepare_with_faults(
        &self,
        d: usize,
        stage: &DeviceStage,
        missing: &[String],
        test: &Table,
        plan: &FaultPlan,
    ) -> Prepared {
        let cfg = &self.config;
        let mut result = self.prepare_device(d, stage, missing, test);
        let note = match &mut result {
            Err(e) => Some(format!("{e} [attempt 0]")),
            Ok(outcome) => match outcome.share.as_mut() {
                Some(share) if plan.device(d).fires(FaultKind::PoisonShareNan, 0) => {
                    poison_share(
                        share,
                        cfg.seed.wrapping_add(cfg.member_id(d).wrapping_mul(101)),
                    );
                    Some(format!(
                        "device {d} ({}) poison-share-nan: release carries non-finite cells \
                         [attempt 0]",
                        stage.device
                    ))
                }
                _ => None,
            },
        };
        (result, note)
    }

    /// One preparation: union seeding, training (for synthetic
    /// sharing), and share production.
    fn prepare_device(
        &self,
        d: usize,
        stage: &DeviceStage,
        missing: &[String],
        test: &Table,
    ) -> Result<DeviceOutcome, FleetError> {
        let cfg = &self.config;
        let device = &stage.device;
        let seed = cfg.seed.wrapping_add(cfg.member_id(d).wrapping_mul(101));
        let training =
            |e: String| FleetError::device(d, device.clone(), DeviceFaultKind::Training, e);
        // kinet-lint: allow(wall-clock) — per-device prep timing, report metadata the fingerprint excludes
        // kinet-lint: allow(determinism-taint) — same contract: prep timing is metadata the fingerprint excludes
        let t0 = Instant::now();
        match &cfg.policy {
            SharingPolicy::Raw => Ok(DeviceOutcome {
                share: Some(stage.local.clone()),
                prep_ms: t0.elapsed().as_secs_f64() * 1e3,
                local_eval: None,
                seeded_classes: Vec::new(),
                diag: None,
            }),
            SharingPolicy::LocalOnly => {
                let eval = evaluate_nids(
                    &stage.local,
                    test,
                    &stage.local,
                    LabSimulator::label_column(),
                    &LabSimulator::attack_events(),
                )
                .map_err(|e| {
                    FleetError::device(d, device.clone(), DeviceFaultKind::Other, e.to_string())
                })?;
                Ok(DeviceOutcome {
                    share: None,
                    prep_ms: t0.elapsed().as_secs_f64() * 1e3,
                    local_eval: Some((eval.accuracy, eval.attack_recall)),
                    seeded_classes: Vec::new(),
                    diag: None,
                })
            }
            SharingPolicy::Synthetic(kind) => {
                // Union seeding: append KG-valid exemplars of the classes
                // this shard is missing, so the generator's condition
                // dictionary covers the fleet union.
                let kg = LabSimulator::knowledge_graph();
                let mut train_table = stage.local.clone();
                let mut seeded_classes = Vec::new();
                if !missing.is_empty() {
                    let seeds = union::synthesize_seeds(
                        &kg,
                        &stage.local,
                        missing,
                        union::SEEDS_PER_CLASS,
                        seed ^ 0xc0de,
                    )?;
                    seeded_classes = seeds
                        .category_counts(LabSimulator::label_column())
                        .map_err(|e| {
                            FleetError::device(
                                d,
                                device.clone(),
                                DeviceFaultKind::Other,
                                e.to_string(),
                            )
                        })?
                        .into_keys()
                        .collect();
                    train_table.append(&seeds).map_err(|e| {
                        FleetError::device(d, device.clone(), DeviceFaultKind::Other, e.to_string())
                    })?;
                }
                let mut diag = None;
                let synth = match kind {
                    ModelKind::KinetGan => {
                        // The small-shard schedule (DESIGN.md §2.4);
                        // `model_epochs` still controls the budget. Seeded
                        // devices additionally draw sampling-time
                        // conditions with the union balance mode so their
                        // handful of seed rows is actually emitted.
                        let mut mcfg = KinetGanConfig::small_shard()
                            .with_epochs(cfg.model_epochs)
                            .with_seed(seed);
                        if !seeded_classes.is_empty() {
                            mcfg = mcfg.with_sample_balance(union::RELEASE_BALANCE);
                        }
                        let mut model = KinetGan::new(mcfg, kg);
                        model
                            .fit(&train_table)
                            .map_err(|e| training(e.to_string()))?;
                        diag = model.report().map(|r| DeviceTrainingDiag {
                            device_index: d,
                            device: device.clone(),
                            final_d_loss: r.d_loss.last().copied().unwrap_or(0.0) as f64,
                            final_g_loss: r.g_loss.last().copied().unwrap_or(0.0) as f64,
                            final_validity: None,
                            epochs: r.d_loss.len(),
                        });
                        model
                            .sample(stage.shard_rows, seed ^ 1)
                            .map_err(|e| training(e.to_string()))?
                    }
                    ModelKind::CtGan => {
                        let mcfg = BaselineConfig::fast_demo()
                            .with_epochs(cfg.model_epochs)
                            .with_seed(seed);
                        let mut model = CtGan::new(mcfg);
                        model
                            .fit(&train_table)
                            .map_err(|e| training(e.to_string()))?;
                        model
                            .sample(stage.shard_rows, seed ^ 1)
                            .map_err(|e| training(e.to_string()))?
                    }
                };
                Ok(DeviceOutcome {
                    share: Some(synth),
                    prep_ms: t0.elapsed().as_secs_f64() * 1e3,
                    local_eval: None,
                    seeded_classes,
                    diag,
                })
            }
        }
    }

    /// Validates and pools shares in device order, enforces quorum, scores
    /// the pool, and assembles the report (returned with the pooled table
    /// for the serving path).
    fn aggregate(
        &self,
        input: AggregateInput<'_>,
        journal: &mut Recorder,
    ) -> Result<(FleetReport, Option<Table>), FleetError> {
        let AggregateInput {
            acquired,
            union_events,
            mut prepared,
            union_classes,
            plan,
            clock,
            test,
            peak,
            start,
        } = input;
        let cfg = &self.config;
        let kg = LabSimulator::knowledge_graph();
        let scope = LabSimulator::label_column();

        let mut pool: Option<Table> = None;
        let mut bytes_shared = 0usize;
        let mut validity = StreamValidity::new();
        let mut devices = Vec::with_capacity(cfg.n_devices);
        let mut local_accs = Vec::new();
        let mut local_recalls = Vec::new();
        let mut release_cov_sum = 0.0;
        let mut reported = vec![false; cfg.n_devices];
        let mut degraded: Vec<(usize, String)> = Vec::new();
        let mut quarantined: Vec<(usize, String)> = Vec::new();
        let mut observed: Vec<String> = Vec::new();
        let mut total_retries = 0usize;
        let mut prep_times = Vec::new();
        let mut seeded_pairs = 0usize;
        let mut coverage_before_sum = 0.0;
        let mut coverage_after_sum = 0.0;
        let mut live_devices = 0usize;

        for (d, (acq, prep)) in acquired.iter().zip(prepared.iter_mut()).enumerate() {
            total_retries += acq.retries;
            observed.extend(acq.observed.iter().cloned());
            observed.extend(union_events[d].iter().cloned());
            let device_name = match &acq.result {
                Ok(stage) => stage.device.clone(),
                Err(_) => DEVICE_CYCLE[cfg.member_id(d) as usize % DEVICE_CYCLE.len()].to_string(),
            };
            let mut report = DeviceReport {
                device_index: d,
                device: device_name,
                status: DEVICE_OK.to_string(),
                retries: acq.retries,
                shard_rows: 0,
                shard_classes: Vec::new(),
                seeded_classes: Vec::new(),
                share_rows: 0,
                prep_ms: 0.0,
                local_accuracy: None,
                local_attack_recall: None,
                diag: None,
            };
            match (&acq.result, prep) {
                (Err(e), _) => {
                    report.status = format!("degraded: {e}");
                    degraded.push((d, e.to_string()));
                }
                (Ok(stage), Some((result, note))) => {
                    live_devices += 1;
                    observed.extend(note.iter().cloned());
                    report.shard_rows = stage.shard_rows;
                    report.shard_classes = stage.vocab.iter().cloned().collect();
                    if !union_classes.is_empty() {
                        let denom = union_classes.len() as f64;
                        coverage_before_sum += stage
                            .vocab
                            .iter()
                            .filter(|c| union_classes.contains(*c))
                            .count() as f64
                            / denom;
                    }
                    match result {
                        Ok(outcome) => {
                            report.seeded_classes = outcome.seeded_classes.clone();
                            report.prep_ms = outcome.prep_ms;
                            report.diag = outcome.diag.clone();
                            prep_times.push(outcome.prep_ms);
                            seeded_pairs += outcome.seeded_classes.len();
                            if !union_classes.is_empty() {
                                let covered: BTreeSet<&String> = stage
                                    .vocab
                                    .iter()
                                    .chain(&outcome.seeded_classes)
                                    .filter(|c| union_classes.contains(*c))
                                    .collect();
                                coverage_after_sum +=
                                    covered.len() as f64 / union_classes.len() as f64;
                            }
                            // Take the share out of the outcome: the table
                            // moves into the pool instead of being cloned.
                            if let Some(share) = outcome.share.take() {
                                match resilience::validate_share(
                                    &share,
                                    &kg,
                                    &cfg.resilience,
                                    cfg.chunk_rows,
                                ) {
                                    Ok(share_validity) => {
                                        if let Some(diag) = report.diag.as_mut() {
                                            diag.final_validity = Some(share_validity.rate());
                                        }
                                        report.share_rows = share.n_rows();
                                        let mut wire = Vec::new();
                                        share.write_csv(&mut wire).map_err(|e| {
                                            FleetError::Data {
                                                context: "wire encoding failed".into(),
                                                source: e,
                                            }
                                        })?;
                                        bytes_shared += wire.len();
                                        validity.absorb(&share_validity);
                                        if !union_classes.is_empty() {
                                            let present = share
                                                .category_counts(scope)
                                                .map_err(FleetError::from)?
                                                .into_keys()
                                                .filter(|c| union_classes.contains(c))
                                                .count();
                                            release_cov_sum +=
                                                present as f64 / union_classes.len() as f64;
                                        }
                                        match &mut pool {
                                            Some(p) => {
                                                p.append(&share).map_err(|e| FleetError::Data {
                                                    context: "pooling failed".into(),
                                                    source: e,
                                                })?
                                            }
                                            None => pool = Some(share),
                                        }
                                        reported[d] = true;
                                    }
                                    Err(reason) => {
                                        let why = reason.describe();
                                        observed.push(format!(
                                            "device {d} ({}) quarantined: {why}",
                                            stage.device
                                        ));
                                        report.status = format!("quarantined: {why}");
                                        journal.event(
                                            "fleet.quarantine",
                                            clock.total(),
                                            &[kv("device", d as u64)],
                                        );
                                        quarantined.push((d, why));
                                    }
                                }
                            }
                            if let Some((acc, recall)) = outcome.local_eval {
                                report.local_accuracy = Some(acc);
                                report.local_attack_recall = Some(recall);
                                local_accs.push(acc);
                                local_recalls.push(recall);
                                reported[d] = true;
                            }
                        }
                        Err(e) => {
                            report.status = format!("degraded: {e}");
                            degraded.push((d, e.to_string()));
                        }
                    }
                }
                (Ok(_), None) => {
                    // Unreachable by construction: phase 3 settles Some for
                    // every acquired device.
                    return Err(FleetError::Internal(format!(
                        "device {d}: acquired but never prepared"
                    )));
                }
            }
            devices.push(report);
        }

        // A lost round names every device that did not report and why:
        // the degraded ones and the ones whose share was quarantined.
        let not_reported: Vec<(usize, String)> = degraded
            .iter()
            .cloned()
            .chain(
                quarantined
                    .iter()
                    .map(|(d, why)| (*d, format!("quarantined: {why}"))),
            )
            .collect();
        resilience::check_quorum(&reported, &not_reported, &cfg.resilience)?;
        let devices_reported = reported.iter().filter(|&&r| r).count();
        journal.event(
            "fleet.quorum",
            clock.total(),
            &[
                kv("reported", devices_reported as u64),
                kv(
                    "required",
                    cfg.resilience.quorum_required(cfg.n_devices) as u64,
                ),
            ],
        );

        let (global_accuracy, attack_recall, pool_kg_validity, pool_rows, pool_class_counts) =
            match (&cfg.policy, &pool) {
                (SharingPolicy::LocalOnly, _) => {
                    let n = local_accs.len().max(1) as f64;
                    (
                        local_accs.iter().sum::<f64>() / n,
                        local_recalls.iter().sum::<f64>() / n,
                        1.0,
                        0,
                        Vec::new(),
                    )
                }
                (_, Some(pool)) => {
                    let eval = evaluate_nids(
                        pool,
                        test,
                        test,
                        LabSimulator::label_column(),
                        &LabSimulator::attack_events(),
                    )
                    .map_err(|e| FleetError::Internal(format!("global evaluation failed: {e}")))?;
                    let counts = pool
                        .category_counts(scope)
                        .map_err(|e| FleetError::Data {
                            context: "pool label histogram failed".into(),
                            source: e,
                        })?
                        .into_iter()
                        .collect();
                    (
                        eval.accuracy,
                        eval.attack_recall,
                        validity.rate(),
                        pool.n_rows(),
                        counts,
                    )
                }
                (_, None) => {
                    return Err(FleetError::Internal(
                        "no device shared any data, yet quorum passed".into(),
                    ))
                }
            };

        let union_report = if cfg.union {
            let n_live = live_devices.max(1) as f64;
            UnionReport {
                enabled: true,
                classes: union_classes.iter().cloned().collect(),
                devices_opted_in: cfg.n_devices,
                seeded_pairs,
                coverage_before: coverage_before_sum / n_live,
                coverage_after: coverage_after_sum / n_live,
                release_coverage: release_cov_sum / n_live,
            }
        } else {
            UnionReport::default()
        };

        let fault_report = FaultReport {
            enabled: !cfg.fault.is_empty(),
            injected: plan.describe(),
            observed,
            retries: total_retries,
            quarantined,
            degraded,
            devices_reported,
            quorum_required: cfg.resilience.quorum_required(cfg.n_devices),
            quorum_met: true,
            virtual_ticks: clock.total(),
        };

        let prep_sum: f64 = prep_times.iter().sum();
        let report = FleetReport {
            policy: cfg.policy.label(),
            n_devices: cfg.n_devices,
            rows_per_device: cfg.rows_per_device,
            chunk_rows: cfg.chunk_rows,
            global_accuracy,
            attack_recall,
            bytes_shared,
            mean_device_prep_ms: prep_sum / prep_times.len().max(1) as f64,
            pool_kg_validity,
            pool_rows,
            pool_class_counts,
            peak_decoded_rows: peak.peak(),
            union: union_report,
            fault: fault_report,
            devices,
            total_wall_ms: start.elapsed().as_secs_f64() * 1e3,
        };
        Ok((report, pool))
    }
}

/// Bundled aggregation inputs (one fleet round's settled phases).
struct AggregateInput<'a> {
    acquired: Vec<Acquired>,
    union_events: Vec<Option<String>>,
    prepared: Vec<Option<Prepared>>,
    union_classes: BTreeSet<String>,
    plan: &'a FaultPlan,
    clock: &'a VirtualClock,
    test: &'a Table,
    peak: &'a PeakRows,
    start: Instant,
}

/// Journals the acquire phase's retries in device order: device `d`
/// retried attempts `0..retries[d]`, each one a `fleet.retry` event.
fn record_retries(journal: &mut Recorder, retries: impl Iterator<Item = usize>) {
    for (d, n) in retries.enumerate() {
        for attempt in 0..n {
            journal.event(
                "fleet.retry",
                0,
                &[kv("device", d as u64), kv("attempt", attempt as u64)],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DeviceFaultSpec;

    #[test]
    fn raw_fleet_end_to_end() {
        let report = FleetSim::new(FleetConfig::fast(SharingPolicy::Raw))
            .run()
            .unwrap();
        assert_eq!(report.n_devices, 2);
        assert!(report.global_accuracy > 0.5, "{report}");
        assert!(report.bytes_shared > 1000);
        assert_eq!(report.policy, "raw");
        assert!(
            (report.pool_kg_validity - 1.0).abs() < 1e-9,
            "simulator output satisfies its own KG: {report}"
        );
        assert_eq!(report.devices.len(), 2);
        assert!(report.devices.iter().all(|d| d.shard_rows == 250));
        // A fault-free round reports everyone healthy.
        assert!(report.devices.iter().all(|d| d.status == DEVICE_OK));
        assert_eq!(report.fault.devices_reported, 2);
        assert!(report.fault.quorum_met);
        assert!(report.fault.observed.is_empty());
        assert_eq!(report.fault.virtual_ticks, 0);
    }

    #[test]
    fn raw_sharing_end_to_end() {
        // The round as `paper distributed` and `sim_gate` spell it: a
        // struct literal over `FleetConfig::default()`.
        let report = FleetSim::new(FleetConfig {
            n_devices: 2,
            rows_per_device: 250,
            test_records: 400,
            model_epochs: 2,
            policy: SharingPolicy::Raw,
            seed: 42,
            ..FleetConfig::default()
        })
        .run()
        .unwrap();
        assert_eq!(report.n_devices, 2);
        assert_eq!(report.rows_per_device, 250);
        assert!(report.global_accuracy > 0.5, "{report}");
        assert!(report.bytes_shared > 1000);
        assert_eq!(report.policy, "raw");
        assert!(
            (report.pool_kg_validity - 1.0).abs() < 1e-9,
            "simulator output satisfies its own KG: {report}"
        );
    }

    #[test]
    fn report_json_roundtrips_through_the_deserializer() {
        let report = FleetSim::new(FleetConfig::fast(SharingPolicy::Raw))
            .run()
            .unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.deterministic_fingerprint(),
            report.deterministic_fingerprint()
        );
        assert_eq!(back.policy, report.policy);
        assert_eq!(back.global_accuracy, report.global_accuracy);
        assert_eq!(back.pool_class_counts, report.pool_class_counts);
        assert_eq!(back.bytes_shared, report.bytes_shared);
        assert_eq!(back.devices.len(), report.devices.len());
    }

    #[test]
    fn local_only_shares_nothing() {
        let report = FleetSim::new(FleetConfig::fast(SharingPolicy::LocalOnly))
            .run()
            .unwrap();
        assert_eq!(report.bytes_shared, 0);
        assert_eq!(report.pool_rows, 0);
        assert!(report.global_accuracy > 0.0);
        assert!(report.devices.iter().all(|d| d.local_accuracy.is_some()));
        assert_eq!(
            report.fault.devices_reported, 2,
            "local evals count as reports"
        );
    }

    #[test]
    fn synthetic_sharing_with_kinetgan() {
        // The headline Table-1 scenario: 4 devices × 500 records under the
        // small-shard schedule. The floors are deliberately demanding —
        // an undertrained generator emits label noise (acc ≈0.24 before
        // the condition-balanced trainer landed) and these assertions are
        // exactly what caught it.
        let report = FleetSim::new(FleetConfig {
            n_devices: 4,
            rows_per_device: 500,
            test_records: 800,
            model_epochs: 60,
            policy: SharingPolicy::Synthetic(ModelKind::KinetGan),
            seed: 42,
            ..FleetConfig::default()
        })
        .run()
        .unwrap();
        assert!(report.policy.contains("KiNETGAN"));
        assert!(
            report.bytes_shared > 1000,
            "synthetic rows still ship bytes"
        );
        assert!(
            report.mean_device_prep_ms > 0.0,
            "training takes measurable time"
        );
        // Quality floor: synthetic sharing must be useful, not merely
        // above the ~1/18 random-guess accuracy of the lab event mix.
        assert!(report.global_accuracy >= 0.5, "{report}");
        // Attack-recall floor: fails on class collapse even when benign
        // accuracy alone would clear the accuracy floor.
        assert!(
            report.attack_recall > 0.0,
            "detector must flag at least some attacks: {report}"
        );
        assert!(
            report.pool_attack_count(&LabSimulator::attack_events()) > 0,
            "pooled synthetic data must contain attack-class rows: {:?}",
            report.pool_class_counts
        );
        // The KG rejection resampler keeps the pool semantically coherent.
        assert!(
            report.pool_kg_validity > 0.5,
            "pooled synthetic data mostly satisfies the KG: {report}"
        );
        // Every device ships training diagnostics, and its release
        // validity is the share-validation tally: weighted by share rows,
        // the per-device rates give back the pool's validity exactly.
        let diags: Vec<_> = report
            .devices
            .iter()
            .filter_map(|d| d.diag.as_ref())
            .collect();
        assert_eq!(diags.len(), 4);
        assert!(diags.iter().all(|d| d.epochs == 60));
        let weighted: f64 = report
            .devices
            .iter()
            .map(|d| {
                let rate = d.diag.as_ref().and_then(|g| g.final_validity);
                rate.expect("every pooled share is scored") * d.share_rows as f64
            })
            .sum();
        let rows: usize = report.devices.iter().map(|d| d.share_rows).sum();
        let pooled = weighted / rows as f64;
        assert!(
            (pooled - report.pool_kg_validity).abs() < 1e-12,
            "per-device validity {pooled} vs pool {}",
            report.pool_kg_validity
        );
    }

    #[test]
    fn device_count_respected() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.n_devices = 5; // cycles device identities
        let report = FleetSim::new(cfg).run().unwrap();
        assert_eq!(report.n_devices, 5);
    }

    #[test]
    fn bounded_window_bounds_peak_decoded_rows() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.rows_per_device = 2000;
        cfg.chunk_rows = 128;
        cfg.device_window = Some(64);
        let report = FleetSim::new(cfg).run().unwrap();
        // Residency = one chunk in flight + the reservoir window; the 2000
        // decoded rows of the eager path must never exist at once.
        assert!(
            report.peak_decoded_rows <= 128 + 64,
            "peak {} exceeds chunk + window",
            report.peak_decoded_rows
        );
        assert_eq!(report.devices[0].share_rows, 64);
        assert_eq!(report.devices[0].shard_rows, 2000);
    }

    #[test]
    fn eager_window_matches_shard() {
        let report = FleetSim::new(FleetConfig::fast(SharingPolicy::Raw))
            .run()
            .unwrap();
        // No window cap: the share is the whole shard, peak reflects it.
        assert_eq!(report.devices[0].share_rows, 250);
        assert!(report.peak_decoded_rows >= 250);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.chunk_rows = 0;
        let err = FleetSim::new(cfg).run().unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_CONFIG_INVALID);
    }

    #[test]
    fn union_vocabs_surface_in_report() {
        // Raw policy skips training, so this exercises the vocabulary
        // exchange and the report plumbing cheaply. Device 1 is benign-only.
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.device_attack_fraction = vec![(1, 0.0)];
        cfg.union = true;
        let report = FleetSim::new(cfg).run().unwrap();
        assert!(report.union.enabled);
        assert!(!report.union.classes.is_empty());
        assert!(report.union.coverage_before <= 1.0);
        assert!(report.union.devices_opted_in == 2);
        // Raw sharing performs no seeding.
        assert_eq!(report.union.seeded_pairs, 0);
        assert_eq!(report.union.coverage_before, report.union.coverage_after);
    }

    #[test]
    fn transient_crash_is_retried_and_the_round_stays_healthy() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.fault =
            vec![DeviceFaultSpec::transient(1, FaultKind::CrashAcquire, 2).with_magnitude(40)];
        let report = FleetSim::new(cfg.clone()).run().unwrap();
        assert_eq!(report.devices[1].retries, 2, "two failed attempts retried");
        assert_eq!(report.devices[1].status, DEVICE_OK, "third attempt heals");
        assert_eq!(report.fault.retries, 2);
        assert!(report.fault.degraded.is_empty());
        assert!(
            report.fault.virtual_ticks > 0,
            "backoff spent virtual ticks: {}",
            report.fault.virtual_ticks
        );
        // The healed shard is identical to a fault-free one: recovery costs
        // ticks, not data.
        let mut clean = cfg.clone();
        clean.fault = Vec::new();
        let clean_report = FleetSim::new(clean).run().unwrap();
        assert_eq!(
            report.devices[1].shard_rows,
            clean_report.devices[1].shard_rows
        );
        assert_eq!(report.global_accuracy, clean_report.global_accuracy);
    }

    #[test]
    fn permanent_crash_degrades_the_device_under_partial_quorum() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.fault = vec![DeviceFaultSpec::permanent(1, FaultKind::CrashAcquire).with_magnitude(40)];
        cfg.resilience.quorum_frac = 0.5;
        let report = FleetSim::new(cfg).run().unwrap();
        assert!(report.devices[1].status.starts_with("degraded:"));
        assert_eq!(report.fault.degraded.len(), 1);
        assert_eq!(report.fault.devices_reported, 1);
        assert_eq!(report.fault.quorum_required, 1);
        assert_eq!(
            report.devices[1].share_rows, 0,
            "no data from the dead device"
        );
        assert!(report.pool_rows > 0, "the survivor still pools");
    }

    #[test]
    fn permanent_crash_with_full_quorum_fails_loud() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.fault = vec![DeviceFaultSpec::permanent(0, FaultKind::CrashAcquire)];
        let err = FleetSim::new(cfg).run().unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_QUORUM_LOST);
        assert!(err.to_string().contains("quorum lost"), "{err}");
    }

    #[test]
    fn quorum_lost_to_quarantine_names_each_device_and_why() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.fault = vec![
            DeviceFaultSpec::permanent(0, FaultKind::CrashAcquire),
            DeviceFaultSpec::permanent(1, FaultKind::PoisonShareNan),
        ];
        cfg.resilience.quorum_frac = 0.5;
        let err = FleetSim::new(cfg).run().unwrap_err();
        assert_eq!(err.exit_code(), crate::error::EXIT_QUORUM_LOST);
        let msg = err.to_string();
        assert!(msg.contains("0/2 devices reported, 1 required"), "{msg}");
        assert!(msg.contains("; device 0: "), "the crashed device: {msg}");
        assert!(
            msg.contains("; device 1: quarantined: non-finite share"),
            "the quarantined device and its reason: {msg}"
        );
    }

    #[test]
    fn poisoned_share_is_quarantined_not_pooled() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        cfg.fault = vec![DeviceFaultSpec::permanent(1, FaultKind::PoisonShareNan)];
        cfg.resilience.quorum_frac = 0.5;
        let report = FleetSim::new(cfg.clone()).run().unwrap();
        assert!(report.devices[1].status.starts_with("quarantined:"));
        assert_eq!(report.fault.quarantined.len(), 1);
        assert_eq!(report.fault.devices_reported, 1);
        // The pool holds only the healthy device's share — and is finite.
        let mut clean = cfg;
        clean.fault = Vec::new();
        let clean_report = FleetSim::new(clean).run().unwrap();
        assert_eq!(report.pool_rows, clean_report.pool_rows / 2);
        assert!(
            (report.pool_kg_validity - 1.0).abs() < 1e-9,
            "quarantine keeps the pool clean: {}",
            report.pool_kg_validity
        );
    }

    #[test]
    fn vocab_drop_shrinks_the_union_but_not_the_round() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        // Device 0 is the only one seeing attacks; its vocab message drops.
        cfg.device_attack_fraction = vec![(1, 0.0)];
        cfg.union = true;
        cfg.fault = vec![DeviceFaultSpec::permanent(0, FaultKind::DropVocab)];
        let report = FleetSim::new(cfg.clone()).run().unwrap();
        let mut clean = cfg;
        clean.fault = Vec::new();
        let clean_report = FleetSim::new(clean).run().unwrap();
        assert!(
            report.union.classes.len() < clean_report.union.classes.len(),
            "union falls back to surviving vocabs: {:?} vs {:?}",
            report.union.classes,
            clean_report.union.classes
        );
        assert_eq!(
            report.fault.devices_reported, 2,
            "both devices still report"
        );
        assert!(!report.fault.observed.is_empty());
    }

    #[test]
    fn member_ids_pin_shard_streams_across_slots() {
        // The same member in a different slot (churned fleet) must stream
        // the same shard: data follows identity, not position.
        let mut a = FleetConfig::fast(SharingPolicy::Raw);
        a.member_ids = vec![0, 5];
        let ra = FleetSim::new(a).run().unwrap();
        let mut b = FleetConfig::fast(SharingPolicy::Raw);
        b.member_ids = vec![5, 0];
        let rb = FleetSim::new(b).run().unwrap();
        assert_eq!(ra.devices[1].device, rb.devices[0].device);
        assert_eq!(ra.devices[1].shard_classes, rb.devices[0].shard_classes);
        // And the default is bit-identical to explicit slot ids.
        let mut c = FleetConfig::fast(SharingPolicy::Raw);
        c.member_ids = vec![0, 1];
        let rc = FleetSim::new(c).run().unwrap();
        let rd = FleetSim::new(FleetConfig::fast(SharingPolicy::Raw))
            .run()
            .unwrap();
        assert_eq!(
            rc.deterministic_fingerprint(),
            rd.deterministic_fingerprint()
        );
    }

    #[test]
    fn watchdog_aborts_a_hung_acquire_phase() {
        let mut cfg = FleetConfig::fast(SharingPolicy::Raw);
        // A straggler that stalls 900 ticks inside a 1000-tick budget is
        // absorbed — but blows a 500-tick watchdog deadline.
        cfg.fault = vec![DeviceFaultSpec::permanent(1, FaultKind::Straggle).with_magnitude(900)];
        cfg.watchdog_ticks = Some(500);
        let err = FleetSim::new(cfg.clone()).run().unwrap_err();
        match &err {
            FleetError::Watchdog {
                phase,
                spent_ticks,
                deadline_ticks,
            } => {
                assert_eq!(phase, "acquire");
                assert!(*spent_ticks > *deadline_ticks);
            }
            other => panic!("expected a watchdog abort, got {other:?}"),
        }
        // The same round with the watchdog disarmed commits normally.
        cfg.watchdog_ticks = None;
        assert!(FleetSim::new(cfg).run().is_ok());
    }

    #[test]
    fn run_detailed_surfaces_the_pool() {
        let (report, pool) = FleetSim::new(FleetConfig::fast(SharingPolicy::Raw))
            .run_detailed()
            .unwrap();
        let pool = pool.expect("raw sharing pools");
        assert_eq!(pool.n_rows(), report.pool_rows);
        let (_, none) = FleetSim::new(FleetConfig::fast(SharingPolicy::LocalOnly))
            .run_detailed()
            .unwrap();
        assert!(none.is_none(), "local-only shares nothing");
    }
}
