//! Open-loop flow scoring through a [`ServingHandle`].
//!
//! Batches are sent on a fixed schedule whatever the scorer's progress
//! (independent flow sources, so an open loop). Each batch is timed on the
//! wall clock from the moment it was *due*, so a stall also charges the
//! wait it imposes on the batches queued behind it; how late the sender
//! itself ran is recorded separately.

use crate::trace::{fastest, highest, now, quantile};
use kinet_data::{DataError, Table};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_fleet::{FleetConfig, FleetSim, ServingHandle, ServingModel, SharingPolicy};
use std::time::Duration;

/// Rows per scored flow batch.
const BATCH_ROWS: usize = 96;
/// Distinct pre-generated batches, sent round-robin.
const DISTINCT_BATCHES: usize = 64;
/// The nominal offered load at which `score_p50_us`/`score_p90_us` are
/// measured, in batches per second.
const NOMINAL_BATCHES_PER_S: f64 = 2000.0;
/// Batches per nominal window: ten lie beyond its p90. A run takes many
/// short windows, spread over its whole timed region, and reports the
/// fastest of them.
const NOMINAL_WINDOW: usize = 100;
/// A scoring slice is `SWEEPS_PER_SLICE` times `WINDOWS_PER_SWEEP` nominal
/// windows followed by a capacity sweep.
const WINDOWS_PER_SWEEP: usize = 2;
const SWEEPS_PER_SLICE: usize = 2;
/// The latency limit a capacity-ladder rung must keep its p90 under.
const LIMIT_US: f64 = 500.0;
/// The capacity ladder: `LADDER_START` batches/s, each rung 2^(1/16)
/// higher, up to 64k batches/s.
const LADDER_START: f64 = 2000.0;
const LADDER_RUNGS: usize = 81;
/// The rung (8k batches/s) a run's first sweep starts from; later sweeps
/// start `RESTART_BELOW` rungs below the previous sweep's result.
const FIRST_RUNG: usize = 32;
const RESTART_BELOW: isize = 4;
/// Batches sent per ladder rung.
const RUNG_BATCHES: usize = 300;
/// A rung builds a backlog when the median sender lateness over its last
/// `TAIL_BATCHES` batches exceeds the limit.
const TAIL_BATCHES: usize = 30;

/// A raw-sharing round of the Table-1 deployment: 4 devices × 500 lab
/// rows, 800 test rows.
pub fn raw_fleet(seed: u64) -> FleetConfig {
    FleetConfig {
        n_devices: 4,
        rows_per_device: 500,
        test_records: 800,
        policy: SharingPolicy::Raw,
        seed,
        ..FleetConfig::default()
    }
}

/// The deployed detector every workload scores with: the serving model a
/// `raw_fleet` round commits, installed as generation 1. Training it on
/// real rows keeps its encoder, and so the per-batch cost, the same for
/// every seed.
pub fn deployed_handle(seed: u64) -> Result<ServingHandle, String> {
    let (_, pool) = FleetSim::new(raw_fleet(seed))
        .run_detailed()
        .map_err(|e| format!("raw round: {e}"))?;
    let pool = pool.ok_or("raw round shared no pool")?;
    let model = ServingModel::train(&pool, 40, seed).map_err(|e| format!("serving model: {e}"))?;
    let mut handle = ServingHandle::empty();
    handle.install(model, 1, 0);
    Ok(handle)
}

/// The workload's pre-generated flow traffic and its reference verdicts.
pub struct Flows {
    pub batches: Vec<Table>,
    /// `(rows, attack_flagged)` per batch, from one uncontended pass.
    expected: Vec<(usize, usize)>,
}

impl Flows {
    /// Generates the batches from `seed` and records the installed model's
    /// verdict on each; any later answer that differs counts as failed.
    pub fn generate(seed: u64, handle: &ServingHandle) -> Result<Self, String> {
        let batches = (0..DISTINCT_BATCHES)
            .map(|i| {
                LabSimulator::new(LabSimConfig::small(
                    BATCH_ROWS,
                    seed ^ 0xf10e ^ (i as u64).wrapping_mul(0x9e37_79b9),
                ))
                .generate()
            })
            .collect::<Result<Vec<_>, DataError>>()
            .map_err(|e| format!("flow batch generation: {e}"))?;
        let expected = batches
            .iter()
            .map(|b| match handle.answer(b, 0) {
                Ok(Some(s)) => Ok((s.rows, s.attack_flagged)),
                Ok(None) => Err("no serving model installed".to_string()),
                Err(e) => Err(format!("reference scoring: {e}")),
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self { batches, expected })
    }
}

/// Everything the scorer observed over a run.
#[derive(Default)]
pub struct ScoreLog {
    /// Per-batch latency from due time at the nominal rate (µs).
    pub latency_us: Vec<f64>,
    /// Each nominal window's p50 and p90 latency (µs).
    pub window_p50_us: Vec<f64>,
    pub window_p90_us: Vec<f64>,
    /// Per-batch sender lateness at the nominal rate (µs).
    pub late_us: Vec<f64>,
    /// Highest passing ladder rate of each completed sweep (rows/s).
    pub capacity: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    /// Rung the next capacity sweep starts from, minus `FIRST_RUNG`.
    start_offset: isize,
}

impl ScoreLog {
    /// p50 latency of the run's fastest nominal window.
    pub fn p50_us(&self) -> f64 {
        fastest(&self.window_p50_us)
    }

    /// p90 latency of the run's fastest nominal window.
    pub fn p90_us(&self) -> f64 {
        fastest(&self.window_p90_us)
    }

    /// The run's best capacity sweep.
    pub fn capacity_rows_per_s(&self) -> f64 {
        highest(&self.capacity)
    }

    /// p99 latency over every nominal-rate batch of the run.
    pub fn p99_us(&self) -> f64 {
        quantile(&self.latency_us, 0.99)
    }

    pub fn absorb(&mut self, other: ScoreLog) {
        self.latency_us.extend(other.latency_us);
        self.window_p50_us.extend(other.window_p50_us);
        self.window_p90_us.extend(other.window_p90_us);
        self.late_us.extend(other.late_us);
        self.capacity.extend(other.capacity);
        self.sent += other.sent;
        self.failed += other.failed;
        self.start_offset = other.start_offset;
    }
}

/// One open-loop burst of `n` batches at `rate` batches/s.
struct Burst {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    failed: u64,
    /// Rows answered per second over the burst (due of the first batch to
    /// completion of the last).
    achieved_rows_per_s: f64,
}

fn burst(handle: &ServingHandle, flows: &Flows, n: usize, rate: f64, first: usize) -> Burst {
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut latency_us = Vec::with_capacity(n);
    let mut late_us = Vec::with_capacity(n);
    let mut failed = 0;
    let start = now();
    let mut end = start;
    for i in 0..n {
        let due = start + interval * i as u32;
        while now() < due {
            std::hint::spin_loop();
        }
        let sent = now();
        let k = (first + i) % flows.batches.len();
        let answer = handle.answer(&flows.batches[k], 0);
        end = now();
        let ok = matches!(answer, Ok(Some(s)) if (s.rows, s.attack_flagged) == flows.expected[k]);
        failed += u64::from(!ok);
        latency_us.push((end - due).as_secs_f64() * 1e6);
        late_us.push((sent - due).as_secs_f64() * 1e6);
    }
    Burst {
        latency_us,
        late_us,
        failed,
        achieved_rows_per_s: (n * BATCH_ROWS) as f64 / (end - start).as_secs_f64(),
    }
}

/// Sends one nominal-rate window and logs its latencies.
pub fn nominal_window(handle: &ServingHandle, flows: &Flows, log: &mut ScoreLog) {
    let b = burst(
        handle,
        flows,
        NOMINAL_WINDOW,
        NOMINAL_BATCHES_PER_S,
        log.sent as usize,
    );
    log.sent += NOMINAL_WINDOW as u64;
    log.failed += b.failed;
    log.window_p50_us.push(quantile(&b.latency_us, 0.5));
    log.window_p90_us.push(quantile(&b.latency_us, 0.9));
    log.latency_us.extend(b.latency_us);
    log.late_us.extend(b.late_us);
}

/// One capacity sweep: climbs the ladder from the start rung while rungs
/// pass (stepping down first if the start rung fails) and logs the
/// achieved rate of the highest passing rung. A rung passes when every
/// answer is right, p90 latency stays under the limit and no backlog
/// builds. The limit applies to p90, not p99: with every core busy, the
/// guest scheduler's multi-millisecond preemptions decide p99 (see
/// README.md).
pub fn capacity_sweep(handle: &ServingHandle, flows: &Flows, log: &mut ScoreLog) {
    let mut rung = FIRST_RUNG.saturating_add_signed(log.start_offset);
    let mut best = None;
    loop {
        let rate = LADDER_START * 2f64.powf(rung as f64 / 16.0);
        let b = burst(handle, flows, RUNG_BATCHES, rate, log.sent as usize);
        log.sent += RUNG_BATCHES as u64;
        log.failed += b.failed;
        let tail = &b.late_us[b.late_us.len().saturating_sub(TAIL_BATCHES)..];
        let pass = b.failed == 0
            && quantile(tail, 0.5) <= LIMIT_US
            && quantile(&b.latency_us, 0.9) <= LIMIT_US;
        if pass {
            best = Some((rung, b.achieved_rows_per_s));
            if rung + 1 == LADDER_RUNGS {
                break;
            }
            rung += 1;
        } else if best.is_none() && rung > 0 {
            rung -= 1;
        } else {
            break;
        }
    }
    log.start_offset = best.map_or(0, |(r, _)| r as isize - RESTART_BELOW - FIRST_RUNG as isize);
    // A sweep in which not even the lowest rung passes logs that rung's
    // offered rate halved: a floor, never zero.
    log.capacity
        .push(best.map_or(LADDER_START * BATCH_ROWS as f64 / 2.0, |(_, a)| a));
}

/// One scoring slice: nominal-rate windows and capacity sweeps, in turn.
/// Workloads interleave slices with their repetitions, so the scoring
/// samples span the whole timed region rather than one stretch of it.
pub fn slice(handle: &ServingHandle, flows: &Flows, log: &mut ScoreLog) {
    for _ in 0..SWEEPS_PER_SLICE {
        for _ in 0..WINDOWS_PER_SWEEP {
            nominal_window(handle, flows, log);
        }
        capacity_sweep(handle, flows, log);
    }
}
