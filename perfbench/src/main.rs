//! The repository benchmark: times KiNETGAN's user-facing workloads on the
//! release build, checks their outputs, and (with `--trace 1`) breaks them
//! down layer by layer with spans recorded around the benchmark's own
//! calls into each layer.
//!
//! ```text
//! perfbench --workload <fit_small_shard|table1_round|resident_service>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run it through `perfbench/run.py`, which builds this package, pins
//! `KINET_THREADS` to at most `nproc`, and adds the process's peak RSS.
//! See `perfbench/README.md` for every metric's definition.

mod fit;
mod round;
mod score;
mod service;
mod trace;

use score::ScoreLog;
use std::path::PathBuf;
use trace::{median, now, Tracer};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fit_small_shard", "table1_round", "resident_service"];
/// Set-up passes per run: at least `SETUP_PASSES`, and more until
/// `SETUP_MIN_S` has passed, so a quick set-up still gets a steady median;
/// `setup_s` is their median.
pub const SETUP_PASSES: usize = 3;
pub const SETUP_MIN_S: f64 = 1.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 10.0,
            trace: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("invalid value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, got {:?}",
                args.workload
            ));
        }
        if !args.seconds.is_finite() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// Output checks: every checked operation counts as attempted, every
/// mismatch or error as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Counts a fallible operation's result; returns its value when `Ok`.
    pub fn result<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Folds in the scorer's batch accounting.
    pub fn scored(&mut self, log: &ScoreLog) {
        self.attempted += log.sent;
        self.failed += log.failed;
        if log.failed > 0 {
            eprintln!(
                "perfbench: {} scored batch(es) unanswered or wrong",
                log.failed
            );
        }
    }
}

/// The metrics one run reports, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The end-to-end scoring metrics every workload reports.
    pub fn put_scoring(&mut self, log: &ScoreLog) {
        self.put("score_p50_us", log.p50_us(), "us");
        self.put("score_p90_us", log.p90_us(), "us");
        self.put(
            "score_capacity_rows_per_s",
            log.capacity_rows_per_s(),
            "rows/s",
        );
    }
}

/// Per-run context shared by the workloads.
pub struct Ctx {
    pub args: Args,
    pub checks: Checks,
    /// Where the benchmark may write: the build directory of the checkout.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A scratch directory for this process under the build directory.
    pub fn scratch(&self, name: &str) -> PathBuf {
        self.out_dir
            .join("perfbench-tmp")
            .join(format!("{}-{name}", std::process::id()))
    }
}

/// Runs the set-up `body` in passes (see `SETUP_PASSES`) and returns the
/// median pass's wall time (s) plus the last pass's product.
pub fn timed_setup<T>(mut body: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    repeat_for(SETUP_MIN_S, SETUP_PASSES, || {
        let t0 = now();
        last = Some(body());
        times.push(t0.elapsed().as_secs_f64());
    });
    (median(&times), last.expect("at least one set-up pass"))
}

/// Repeats `body` until `seconds` have passed and at least `min_reps` ran.
pub fn repeat_for(seconds: f64, min_reps: usize, mut body: impl FnMut()) {
    let t0 = now();
    let mut reps = 0;
    while reps < min_reps || t0.elapsed().as_secs_f64() < seconds {
        body();
        reps += 1;
    }
}

/// The `k`-th seed a run derives from its `--seed`; sub-seed 0 is the
/// seed itself. Workloads whose quality depends on the seed average it
/// over several sub-seeds.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add(k as u64 * 7919)
}

/// FNV-1a over a byte stream, for output fingerprints.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} KINET_THREADS={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        kinet_tensor::pool::num_threads(),
    );
    let mut ctx = Ctx {
        args,
        checks: Checks::default(),
        out_dir,
    };
    let metrics = if ctx.args.trace {
        traced(&mut ctx)
    } else {
        match ctx.args.workload.as_str() {
            "fit_small_shard" => fit::run(&mut ctx),
            "table1_round" => round::run(&mut ctx),
            _ => service::run(&mut ctx),
        }
    };
    let _ = std::fs::remove_dir_all(ctx.out_dir.join("perfbench-tmp"));

    for (name, value, _) in &metrics.0 {
        ctx.checks
            .check(value.is_finite(), || format!("metric {name} is not finite"));
    }
    let correct = ctx.checks.failed == 0;
    let mut json = String::new();
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        println!("metric {name} = {value} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        ctx.checks.attempted.max(1),
        ctx.checks.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The traced run: every workload's layer trace (so every per-layer metric
/// is reported whichever workload was asked for), plus the asked-for
/// workload's tracing overhead against untraced repetitions of its main
/// operation.
fn traced(ctx: &mut Ctx) -> Metrics {
    let untraced_s = match ctx.args.workload.as_str() {
        "fit_small_shard" => fit::untraced_op_s(ctx),
        "table1_round" => round::untraced_op_s(ctx),
        _ => service::untraced_op_s(ctx),
    };
    let mut t = Tracer::new();
    let mut m = Metrics::default();
    let traced = [
        fit::trace(ctx, &mut t, &mut m),
        round::trace(ctx, &mut t, &mut m),
        service::trace(ctx, &mut t, &mut m),
    ];
    let selected = WORKLOADS
        .iter()
        .position(|w| *w == ctx.args.workload)
        .expect("workload validated by Args::parse");
    let traced_s = traced[selected];
    m.put("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
    let path = ctx
        .out_dir
        .join("perfbench-trace")
        .join(format!("{}-seed{}.json", ctx.args.workload, ctx.args.seed));
    let written = t.write_json(&path);
    ctx.checks.result("writing the span file", written);
    println!("spans written to {}", path.display());
    m
}
