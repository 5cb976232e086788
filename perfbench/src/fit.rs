//! `fit_small_shard`: one device's KiNETGAN fit at the fleet's small-shard
//! setting on a 500-row lab shard, then its 500-row release.

use crate::score::{self, Flows, ScoreLog};
use crate::trace::{fastest, median, now, Tracer};
use crate::{fnv, repeat_for, sub_seed, timed_setup, Ctx, Metrics};
use kinet_data::condition::ConditionVectorSpec;
use kinet_data::sampler::TrainingSampler;
use kinet_data::synth::TabularSynthesizer;
use kinet_data::transform::DataTransformer;
use kinet_data::{ColumnKind, Table};
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_eval::utility::evaluate_nids;
use kinet_fleet::ServingHandle;
use kinet_kg::NetworkKg;
use kinet_nn::loss::{gan_discriminator_loss, gan_generator_loss};
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::Tape;
use kinet_tensor::Matrix;
use kinetgan::pipeline::KgTrainPipeline;
use kinetgan::{
    ConditionalGenerator, KinetGan, KinetGanConfig, KnowledgeDiscriminator, RecordDiscriminator,
};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

const SHARD_ROWS: usize = 500;
const RELEASE_ROWS: usize = 500;
const TEST_ROWS: usize = 800;
/// Epochs the traced run replays the training step for (its medians are
/// per call; the fit itself runs `small_shard`'s full schedule).
const REPLAY_EPOCHS: usize = 10;
/// Rows of the post-fit probe sample `KinetGan::fit` draws.
const PROBE_ROWS: usize = 256;

/// The workload's generated inputs.
pub struct Inputs {
    shard: Table,
    test: Table,
    cfg: KinetGanConfig,
    kg: Arc<NetworkKg>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Result<Self, String> {
        let gen = |n, s| {
            LabSimulator::new(LabSimConfig::small(n, s))
                .generate()
                .map_err(|e| format!("lab data generation: {e}"))
        };
        Ok(Self {
            shard: gen(SHARD_ROWS, seed)?,
            test: gen(TEST_ROWS, seed ^ 0xfeed)?,
            cfg: KinetGanConfig::small_shard().with_seed(seed),
            kg: Arc::new(LabSimulator::knowledge_graph()),
        })
    }
}

/// One fit and release, timed.
struct FitOut {
    model: KinetGan,
    release: Table,
    /// Loss trajectory plus release bytes.
    fingerprint: u64,
    /// Release bytes alone.
    release_digest: u64,
    fit_s: f64,
    release_s: f64,
}

/// A fitted model's 500-row release, its CSV bytes and its wall time (s).
fn release(model: &KinetGan, inp: &Inputs) -> Result<(Table, Vec<u8>, f64), String> {
    let t0 = now();
    let table = model
        .sample(RELEASE_ROWS, inp.cfg.seed ^ 1)
        .map_err(|e| format!("release sample: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let mut csv = Vec::new();
    table
        .write_csv(&mut csv)
        .map_err(|e| format!("release encoding: {e}"))?;
    Ok((table, csv, secs))
}

fn fit_once(inp: &Inputs) -> Result<FitOut, String> {
    let mut model = KinetGan::with_shared_kg(inp.cfg.clone(), inp.kg.clone());
    let t0 = now();
    model.fit(&inp.shard).map_err(|e| format!("fit: {e}"))?;
    let fit_s = t0.elapsed().as_secs_f64();
    let (release, csv, release_s) = release(&model, inp)?;
    let report = model.report().ok_or("fit left no training report")?;
    let losses = report.d_loss.iter().chain(&report.g_loss);
    let fingerprint = fnv(losses
        .flat_map(|l| l.to_bits().to_le_bytes())
        .chain(csv.iter().copied()));
    Ok(FitOut {
        model,
        release,
        fingerprint,
        release_digest: fnv(csv),
        fit_s,
        release_s,
    })
}

/// Sub-seeds a run cycles through; the quality ratios are their mean.
const SUB_SEEDS: usize = 12;
/// Stored releases re-timed after each repetition.
const RELEASE_REPEATS: usize = 4;

/// Everything set-up produces: every sub-seed's inputs, the deployed
/// detector and its flow traffic; one cold fit warms the process.
struct Setup {
    inputs: Vec<Inputs>,
    handle: ServingHandle,
    flows: Flows,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let inputs = (0..SUB_SEEDS)
        .map(|k| Inputs::generate(sub_seed(seed, k)))
        .collect::<Result<Vec<_>, _>>()?;
    fit_once(&inputs[0])?;
    let handle = score::deployed_handle(seed)?;
    let flows = Flows::generate(seed, &handle)?;
    Ok(Setup {
        inputs,
        handle,
        flows,
    })
}

/// A release's quality: downstream (accuracy, attack recall) of a
/// detector trained on it, and its KG validity.
fn release_quality(inp: &Inputs, out: &FitOut) -> Result<[f64; 3], String> {
    let eval = evaluate_nids(
        &out.release,
        &inp.test,
        &inp.test,
        LabSimulator::label_column(),
        &LabSimulator::attack_events(),
    )
    .map_err(|e| e.to_string())?;
    Ok([
        eval.accuracy,
        eval.attack_recall,
        out.model.validity_rate(&out.release),
    ])
}

pub fn run(ctx: &mut Ctx) -> Metrics {
    let mut m = Metrics::default();
    let (setup_s, s) = timed_setup(|| setup(ctx.args.seed));
    m.put("setup_s", setup_s, "s");
    let Some(s) = ctx.checks.result("fit_small_shard set-up", s) else {
        return m;
    };

    // Repetitions cycle through the sub-seeds; each sub-seed's first
    // repetition sets the fingerprint the later ones must reproduce. A
    // release's time depends on its sub-seed (on how many rows the KG
    // rejects), so each repetition also re-times `RELEASE_REPEATS` stored
    // releases, round robin: every sub-seed gets samples spread over the
    // run, and `follow_s` weighs every sub-seed alike.
    let mut fingerprints = [None; SUB_SEEDS];
    let mut quality = [[f64::NAN; 3]; SUB_SEEDS];
    let mut models: Vec<Option<(KinetGan, u64)>> = (0..SUB_SEEDS).map(|_| None).collect();
    let mut release_s = vec![Vec::new(); SUB_SEEDS];
    let mut fit_s = Vec::new();
    let (mut rep, mut cursor) = (0, 0);
    let checks = &mut ctx.checks;
    let mut log = ScoreLog::default();
    repeat_for(ctx.args.seconds, SUB_SEEDS + 1, || {
        let k = rep % SUB_SEEDS;
        rep += 1;
        let inp = &s.inputs[k];
        let Some(out) = checks.result("fit + release", fit_once(inp)) else {
            return;
        };
        fit_s.push(out.fit_s);
        release_s[k].push(out.release_s);
        checks.check(out.release.n_rows() == RELEASE_ROWS, || {
            format!("release has {} rows", out.release.n_rows())
        });
        match fingerprints[k] {
            Some(fp) => checks.check(out.fingerprint == fp, || {
                format!(
                    "fit fingerprint differs between repetitions at seed {}",
                    inp.cfg.seed
                )
            }),
            None => {
                fingerprints[k] = Some(out.fingerprint);
                if let Some(q) = checks.result("release quality", release_quality(inp, &out)) {
                    quality[k] = q;
                }
            }
        }
        models[k] = Some((out.model, out.release_digest));
        let stored: Vec<usize> = (0..SUB_SEEDS).filter(|&j| models[j].is_some()).collect();
        for _ in 0..RELEASE_REPEATS {
            let j = stored[cursor % stored.len()];
            cursor += 1;
            let Some((model, digest)) = &models[j] else {
                continue;
            };
            let Some((_, csv, secs)) = checks.result("release", release(model, &s.inputs[j]))
            else {
                continue;
            };
            release_s[j].push(secs);
            checks.check(fnv(csv) == *digest, || {
                format!(
                    "release differs between repetitions at seed {}",
                    s.inputs[j].cfg.seed
                )
            });
        }
        score::slice(&s.handle, &s.flows, &mut log);
    });
    m.put("work_s", fastest(&fit_s), "s");
    let per_seed: Vec<f64> = release_s
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| fastest(v.as_slice()))
        .collect();
    m.put(
        "follow_s",
        per_seed.iter().sum::<f64>() / per_seed.len() as f64,
        "s",
    );

    ctx.checks.scored(&log);
    m.put_scoring(&log);
    let mean = |i: usize| quality.iter().map(|q| q[i]).sum::<f64>() / SUB_SEEDS as f64;
    m.put("accuracy", mean(0), "ratio");
    m.put("attack_recall", mean(1), "ratio");
    m.put("kg_validity", mean(2), "ratio");
    m
}

/// Untraced reference for `trace.overhead_share`: median fit + release
/// after one warm-up.
pub fn untraced_op_s(ctx: &mut Ctx) -> f64 {
    let Some(inp) = ctx.checks.result("inputs", Inputs::generate(ctx.args.seed)) else {
        return f64::NAN;
    };
    let times: Vec<f64> = (0..4)
        .filter_map(|_| ctx.checks.result("fit + release", fit_once(&inp)))
        .map(|o| o.fit_s + o.release_s)
        .collect();
    median(times.get(1..).unwrap_or_default())
}

/// The traced pass: the workload's own fit and release, then a replay of
/// the training step at the fit's shapes through the same public types in
/// the fit loop's order. Returns the traced fit + release wall time (s).
pub fn trace(ctx: &mut Ctx, t: &mut Tracer, m: &mut Metrics) -> f64 {
    let group = t.open("workload.fit_small_shard");
    let Some(inp) = ctx.checks.result("inputs", Inputs::generate(ctx.args.seed)) else {
        t.close(group);
        return f64::NAN;
    };
    let mut model = KinetGan::with_shared_kg(inp.cfg.clone(), inp.kg.clone());
    let op = t.open("op.fit_and_release");
    let fitted = t.time("core.fit", || model.fit(&inp.shard));
    ctx.checks.result("fit", fitted);
    let release = t.time("core.sample", || {
        model.sample(RELEASE_ROWS, inp.cfg.seed ^ 1)
    });
    let op_s = t.close(op) / 1e6;
    let Some(release) = ctx.checks.result("release sample", release) else {
        t.close(group);
        return f64::NAN;
    };
    for _ in 0..2 {
        let again = t.time("core.sample", || {
            model.sample(RELEASE_ROWS, inp.cfg.seed ^ 1)
        });
        ctx.checks.result("release sample", again);
    }
    for _ in 0..5 {
        t.time("kg.validity_rate", || model.validity_rate(&release));
    }
    for _ in 0..3 {
        let probe = t.time("core.probe_sample", || {
            model.sample(PROBE_ROWS, inp.cfg.seed ^ 0x5eed)
        });
        ctx.checks.result("probe sample", probe);
    }
    let replayed = replay(&inp, t);
    ctx.checks.result("training-step replay", replayed);
    t.close(group);

    let fit_us = t.median_us("core.fit");
    let step_us = t.median_us("core.step");
    let steps = (inp.cfg.epochs * (SHARD_ROWS / inp.cfg.batch_size).max(1)) as f64;
    let transformer_us = t.median_us("data.transformer_fit");
    let attributed = (transformer_us + steps * step_us + t.median_us("core.probe_sample")) / fit_us;
    for (name, span, scale, unit) in [
        (
            "data.transformer_fit_ms",
            "data.transformer_fit",
            1e-3,
            "ms",
        ),
        ("data.sample_batch_us", "data.sample_batch", 1.0, "us"),
        ("tensor.gather_rows_us", "tensor.gather_rows", 1.0, "us"),
        ("kg.fill_positives_us", "kg.fill_positives", 1.0, "us"),
        ("nn.gen_forward_us", "nn.gen_forward", 1.0, "us"),
        ("nn.dm_forward_us", "nn.dm_forward", 1.0, "us"),
        ("nn.dkg_forward_us", "nn.dkg_forward", 1.0, "us"),
        ("nn.d_backward_us", "nn.d_backward", 1.0, "us"),
        ("nn.g_backward_us", "nn.g_backward", 1.0, "us"),
        ("nn.optim_us", "nn.optim", 1.0, "us"),
        ("nn.tape_drop_us", "nn.tape_drop", 1.0, "us"),
        ("core.step_us", "core.step", 1.0, "us"),
        ("core.sample_ms", "core.sample", 1e-3, "ms"),
        ("kg.validity_rate_us", "kg.validity_rate", 1.0, "us"),
    ] {
        m.put(name, t.median_us(span) * scale, unit);
    }
    m.put("core.steps", steps, "count");
    m.put("core.fit_attributed_share", attributed, "ratio");
    m.put(
        "trace.fit_small_shard.covered_share",
        t.child_coverage(group),
        "ratio",
    );
    m.put(
        "trace.fit_small_shard.unattributed_share",
        1.0 - attributed,
        "ratio",
    );
    op_s
}

/// Replays `REPLAY_EPOCHS` epochs of `KinetGan::fit`'s training step with
/// a span around every layer call.
fn replay(inp: &Inputs, t: &mut Tracer) -> Result<(), String> {
    let cfg = &inp.cfg;
    let table = &inp.shard;
    let err = |e: kinet_data::DataError| e.to_string();
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut transformer = None;
    for _ in 0..3 {
        let fitted = t.time("data.transformer_fit", || {
            DataTransformer::fit(table, cfg.max_modes, cfg.seed)
        });
        transformer = Some(fitted.map_err(err)?);
    }
    let transformer = transformer.expect("fitted above");
    let schema = table.schema();
    let cond_cols: Vec<&str> = inp
        .kg
        .conditional_fields()
        .iter()
        .filter(|f| {
            schema
                .index_of(f)
                .is_some_and(|i| schema.column(i).kind() == ColumnKind::Categorical)
        })
        .map(String::as_str)
        .collect();
    let spec = ConditionVectorSpec::fit(table, &cond_cols).map_err(err)?;
    let sampler = TrainingSampler::fit(table, &spec).map_err(err)?;
    // (condition-vector offset, width, generator head) per conditional
    // column; categorical columns own one head, continuous ones two.
    let mut head_of_col = Vec::new();
    let mut h = 0;
    for col in transformer.schema().iter() {
        head_of_col.push(h);
        h += if col.kind() == ColumnKind::Categorical {
            1
        } else {
            2
        };
    }
    let cond_heads: Vec<(usize, usize, usize)> = (0..spec.n_columns())
        .map(|ci| {
            let sidx = transformer
                .schema()
                .index_of(&spec.columns()[ci])
                .expect("condition column is in the schema");
            (
                spec.offset(ci),
                spec.encoder(ci).n_categories(),
                head_of_col[sidx],
            )
        })
        .collect();

    let generator = ConditionalGenerator::new(
        cfg.z_dim,
        spec.width(),
        &cfg.gen_hidden,
        &transformer,
        &mut rng,
    );
    let d_m = RecordDiscriminator::new(
        transformer.width(),
        spec.width(),
        &cfg.disc_hidden,
        cfg.disc_dropout,
        &mut rng,
    );
    let d_kg = KnowledgeDiscriminator::new(
        transformer.width(),
        &cfg.disc_hidden,
        cfg.disc_dropout,
        &mut rng,
    );
    let g_params = generator.params();
    let mut g_opt = Adam::with_betas(g_params.clone(), cfg.lr, 0.5, 0.9);
    let mut d_params = d_m.params();
    d_params.extend(&d_kg.params());
    let mut d_opt = Adam::with_betas(d_params.clone(), cfg.lr, 0.5, 0.9);
    let encoded = transformer.transform(table, &mut rng);
    let mut pipe = KgTrainPipeline::new(&inp.kg, table, &transformer);
    let mut real_buf = Matrix::default();
    let mut pos_buf = Matrix::default();
    let bs = cfg.batch_size;

    for _ in 0..REPLAY_EPOCHS * (table.n_rows() / bs).max(1) {
        let step = t.open("core.step");
        let conds = t
            .time("data.sample_batch", || {
                sampler.sample_batch(table, &spec, cfg.balance, true, bs, &mut rng)
            })
            .map_err(err)?;
        let c = Matrix::from_fn(bs, spec.width(), |r, j| conds[r].vector[j]);
        let real_idx: Vec<usize> = conds.iter().map(|s| s.row).collect();
        t.time("tensor.gather_rows", || {
            encoded.gather_rows_into(&real_idx, &mut real_buf)
        });

        // Discriminator step.
        let tape = Tape::new();
        let fake = t.time("nn.gen_forward", || {
            generator.generate(&tape, &c, cfg.tau, true, &mut rng)
        });
        let real = tape.constant(real_buf.clone());
        let d_real = t.time("nn.dm_forward", || {
            d_m.forward(&tape, real, &c, true, &mut rng)
        });
        let d_fake = t.time("nn.dm_forward", || {
            d_m.forward(&tape, fake.output, &c, true, &mut rng)
        });
        t.time("kg.fill_positives", || {
            pipe.fill_positives(&real_idx, &mut pos_buf, &mut rng, 8)
        })
        .map_err(err)?;
        let pos = tape.constant(pos_buf.clone());
        let kg_pos = t.time("nn.dkg_forward", || {
            d_kg.forward(&tape, pos, true, &mut rng)
        });
        let kg_neg = t.time("nn.dkg_forward", || {
            d_kg.forward(&tape, fake.output, true, &mut rng)
        });
        let loss = gan_discriminator_loss(d_real, d_fake, cfg.real_label)
            .add(gan_discriminator_loss(kg_pos, kg_neg, 1.0));
        std::hint::black_box(loss.value());
        t.time("nn.d_backward", || tape.backward(loss));
        t.time("nn.optim", || {
            d_params.clip_grad_norm(cfg.clip_norm);
            d_opt.step();
            d_opt.zero_grad();
            g_opt.zero_grad();
        });
        drop(fake);
        t.time("nn.tape_drop", move || drop(tape));

        // Generator step.
        let tape = Tape::new();
        let fake = t.time("nn.gen_forward", || {
            generator.generate(&tape, &c, cfg.tau, true, &mut rng)
        });
        let d_fake = t.time("nn.dm_forward", || {
            d_m.forward(&tape, fake.output, &c, true, &mut rng)
        });
        let kg_fake = t.time("nn.dkg_forward", || {
            d_kg.forward(&tape, fake.output, true, &mut rng)
        });
        let mut loss = gan_generator_loss(d_fake.add(kg_fake.scale(cfg.lambda_kg)));
        for &(off, width, head) in &cond_heads {
            let target = Matrix::from_fn(bs, width, |r, j| c[(r, off + j)]);
            let ce = fake.head_logits[head].softmax_cross_entropy(&target);
            loss = loss.add(ce.scale(cfg.lambda_cond));
        }
        std::hint::black_box(loss.value());
        t.time("nn.g_backward", || tape.backward(loss));
        t.time("nn.optim", || {
            g_params.clip_grad_norm(cfg.clip_norm);
            g_opt.step();
            g_opt.zero_grad();
            d_opt.zero_grad();
        });
        drop(fake);
        t.time("nn.tape_drop", move || drop(tape));
        t.close(step);
    }
    Ok(())
}
