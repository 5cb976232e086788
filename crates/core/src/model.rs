//! The end-to-end KiNETGAN model: fit, sample, and knowledge guidance.

use crate::config::{KgMode, KinetGanConfig};
use crate::discriminator::{KnowledgeDiscriminator, RecordDiscriminator};
use crate::generator::ConditionalGenerator;
use crate::pipeline::KgTrainPipeline;
use kinet_data::condition::ConditionVectorSpec;
use kinet_data::encoded::KgTableChecker;
use kinet_data::sampler::TrainingSampler;
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::transform::{CategoricalEncoder, DataTransformer};
use kinet_data::{ColumnKind, Table};
use kinet_kg::NetworkKg;
use kinet_nn::optim::{Adam, Optimizer};
use kinet_nn::{Tape, Var};
use kinet_tensor::Matrix;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Per-epoch loss trajectory and summary statistics of one `fit` run.
#[derive(Clone, Debug, Default)]
pub struct TrainingReport {
    /// Mean discriminator loss per epoch (`D_M` + `D_KG`).
    pub d_loss: Vec<f32>,
    /// Mean generator loss per epoch (adversarial + condition + mask).
    pub g_loss: Vec<f32>,
    /// Scope-class dictionary for [`TrainingReport::epoch_class_counts`]
    /// (the KG scope field's categories, in encoder order). Empty when the
    /// scope column is absent or not categorical.
    pub class_names: Vec<String>,
    /// Per epoch, per scope class: how many training conditions were drawn
    /// for that class. The footprint of train-by-sampling — a rare attack
    /// class whose row here is all zeros was never conditioned on, which is
    /// exactly the class-collapse signature the balance modes exist to
    /// prevent.
    pub epoch_class_counts: Vec<Vec<u64>>,
}

struct Fitted {
    transformer: DataTransformer,
    cond_spec: ConditionVectorSpec,
    sampler: TrainingSampler,
    generator: ConditionalGenerator,
    d_m: RecordDiscriminator,
    d_kg: Option<KnowledgeDiscriminator>,
    table: Table,
    report: TrainingReport,
}

/// The KiNETGAN synthesizer. See the [crate docs](crate) for the model
/// description and a usage example.
pub struct KinetGan {
    config: KinetGanConfig,
    kg: Arc<NetworkKg>,
    fitted: Option<Fitted>,
}

impl KinetGan {
    /// Creates an unfitted model bound to a knowledge graph.
    pub fn new(config: KinetGanConfig, kg: NetworkKg) -> Self {
        Self {
            config,
            kg: Arc::new(kg),
            fitted: None,
        }
    }

    /// Creates a model sharing an existing knowledge-graph handle.
    pub fn with_shared_kg(config: KinetGanConfig, kg: Arc<NetworkKg>) -> Self {
        Self {
            config,
            kg,
            fitted: None,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &KinetGanConfig {
        &self.config
    }

    /// The bound knowledge graph.
    pub fn knowledge_graph(&self) -> &NetworkKg {
        &self.kg
    }

    /// The training report of the last `fit`, if any.
    pub fn report(&self) -> Option<&TrainingReport> {
        self.fitted.as_ref().map(|f| &f.report)
    }

    /// Fraction of `table` rows that satisfy the knowledge graph. Scored
    /// through the compiled reasoner (interned codes, no per-row
    /// assignments); exactly equal to the string reasoner's verdicts.
    pub fn validity_rate(&self, table: &Table) -> f64 {
        KgTableChecker::new(self.kg.compiled(), self.kg.base_interner(), table.schema())
            .validity_rate(table)
            .expect("checker bound to this table's own schema cannot mismatch")
    }

    /// The conditional columns used for the condition vector: the KG's
    /// conditional fields that exist as categorical columns in `table`.
    fn conditional_columns<'a>(&self, table: &'a Table) -> Vec<&'a str> {
        let mut cols: Vec<&str> = Vec::new();
        for f in self.kg.conditional_fields() {
            if let Some(idx) = table.schema().index_of(f) {
                if table.schema().column(idx).kind() == ColumnKind::Categorical {
                    cols.push(table.schema().column(idx).name());
                }
            }
        }
        if cols.is_empty() {
            cols = table.schema().categorical_names();
        }
        cols
    }

    /// Builds, for each conditional column, `(spec idx, head idx, schema
    /// idx)`.
    fn map_cond_heads(
        transformer: &DataTransformer,
        cond_spec: &ConditionVectorSpec,
    ) -> Vec<(usize, usize, usize)> {
        // head index per schema column: categorical -> 1 head, continuous -> 2
        let schema = transformer.schema();
        let mut head_of_col = Vec::with_capacity(schema.len());
        let mut h = 0;
        for col in schema.iter() {
            head_of_col.push(h);
            h += match col.kind() {
                ColumnKind::Categorical => 1,
                ColumnKind::Continuous => 2,
            };
        }
        cond_spec
            .columns()
            .iter()
            .enumerate()
            .map(|(ci, name)| {
                let sidx = schema.index_of(name).expect("cond column exists in schema");
                // categorical columns have a single softmax head
                (ci, head_of_col[sidx], sidx)
            })
            .collect()
    }

    /// Runs one full training pass; returns the fitted state.
    fn train(&self, table: &Table) -> Result<Fitted, SynthError> {
        self.config.validate().map_err(SynthError::Training)?;
        if table.is_empty() {
            return Err(SynthError::Training("training table is empty".into()));
        }
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let transformer = DataTransformer::fit(table, cfg.max_modes, cfg.seed)?;
        let cond_cols = self.conditional_columns(table);
        let cond_spec = ConditionVectorSpec::fit(table, &cond_cols)?;
        let sampler = TrainingSampler::fit(table, &cond_spec)?;
        let cond_heads = Self::map_cond_heads(&transformer, &cond_spec);

        let generator = ConditionalGenerator::new(
            cfg.z_dim,
            cond_spec.width(),
            &cfg.gen_hidden,
            &transformer,
            &mut rng,
        );
        let d_m = RecordDiscriminator::new(
            transformer.width(),
            cond_spec.width(),
            &cfg.disc_hidden,
            cfg.disc_dropout,
            &mut rng,
        );
        let use_dkg = matches!(cfg.kg_mode, KgMode::Neural | KgMode::Both);
        let d_kg = use_dkg.then(|| {
            KnowledgeDiscriminator::new(
                transformer.width(),
                &cfg.disc_hidden,
                cfg.disc_dropout,
                &mut rng,
            )
        });
        let use_mask = matches!(cfg.kg_mode, KgMode::SoftMask | KgMode::Both);

        let mut g_opt = Adam::with_betas(generator.params(), cfg.lr, 0.5, 0.9);
        let mut d_params = d_m.params();
        if let Some(dkg) = &d_kg {
            d_params.extend(&dkg.params());
        }
        let mut d_opt = Adam::with_betas(d_params.clone(), cfg.lr, 0.5, 0.9);
        let g_params = generator.params();

        let encoded = transformer.transform(table, &mut rng);

        let steps = (table.n_rows() / cfg.batch_size).max(1);
        let mut report = TrainingReport::default();

        // Scope-class tracking for the per-epoch condition diagnostics:
        // which event class each drawn training condition belongs to.
        let scope = self.kg.scope_field();
        let scope_cat = table
            .schema()
            .index_of(scope)
            .filter(|&c| table.schema().column(c).kind() == ColumnKind::Categorical);
        let mut row_class: Vec<usize> = Vec::new();
        if scope_cat.is_some() {
            // Reuse the condition spec's encoder when the scope is itself a
            // conditional column (the normal KiNETGAN case) so the
            // diagnostics share its category order; fit one only otherwise.
            let local;
            let enc = match cond_spec.column_index(scope) {
                Some(ci) => cond_spec.encoder(ci),
                None => {
                    local = CategoricalEncoder::fit(table.cat_column(scope)?.iter().cloned());
                    &local
                }
            };
            row_class = table
                .cat_column(scope)?
                .iter()
                .map(|v| enc.encode(v).unwrap_or(0))
                .collect();
            report.class_names = enc.categories().to_vec();
        }

        // D_KG positives: pre-encode the table once (codes + the
        // deterministic transform) and compile per-event sampling plans;
        // every batch then gathers by index into reused buffers.
        let mut kg_pipe = use_dkg.then(|| KgTrainPipeline::new(&self.kg, table, &transformer));
        let mut real_buf = Matrix::default();
        let mut pos_buf = Matrix::default();
        let mut real_idx: Vec<usize> = Vec::with_capacity(cfg.batch_size);
        let mut c = Matrix::zeros(cfg.batch_size, cond_spec.width());
        // BCE(C, Ĉ) targets: each conditional head's block of `c`.
        let mut cond_targets: Vec<Matrix> = cond_heads
            .iter()
            .map(|&(spec_idx, _, _)| {
                Matrix::zeros(cfg.batch_size, cond_spec.encoder(spec_idx).n_categories())
            })
            .collect();
        // One tape per graph the step records, each reset and re-recorded
        // every step, so the steady-state step reuses their storage.
        let mut gen_tape = Tape::no_grad();
        let mut d_tape = Tape::new();
        let mut g_tape = Tape::frozen(&d_params);

        for epoch in 0..cfg.epochs {
            let mut d_epoch = 0.0f32;
            let mut g_epoch = 0.0f32;
            let mut class_counts = vec![0u64; report.class_names.len()];
            for step in 0..steps {
                let conditions = sampler.sample_batch(
                    table,
                    &cond_spec,
                    cfg.balance,
                    true,
                    cfg.batch_size,
                    &mut rng,
                )?;
                if !row_class.is_empty() {
                    for cond in &conditions {
                        class_counts[row_class[cond.row]] += 1;
                    }
                }
                for (r, cond) in conditions.iter().enumerate() {
                    c.row_mut(r).copy_from_slice(&cond.vector);
                }
                real_idx.clear();
                real_idx.extend(conditions.iter().map(|s| s.row));
                encoded.gather_rows_into(&real_idx, &mut real_buf);

                // ---- discriminator step ----
                {
                    // The fake batch enters D's graph detached: the
                    // generator runs on a value-only tape (same draws,
                    // same batch-norm updates), so no generator gradient
                    // is computed only to be thrown away.
                    gen_tape.reset();
                    let out = generator.generate(&gen_tape, &c, cfg.tau, true, &mut rng);
                    d_tape.reset();
                    let tape = &d_tape;
                    let fake = out.output.with_value(|v| tape.constant_copy(v));
                    let real_node = tape.constant_copy(&real_buf);
                    let d_real = d_m.forward(tape, real_node, &c, true, &mut rng);
                    let d_fake = d_m.forward(tape, fake, &c, true, &mut rng);
                    let mut loss =
                        kinet_nn::loss::gan_discriminator_loss(d_real, d_fake, cfg.real_label);
                    if let (Some(dkg), Some(pipe)) = (&d_kg, kg_pipe.as_mut()) {
                        pipe.fill_positives(&real_idx, &mut pos_buf, &mut rng, 8)?;
                        let kg_pos =
                            dkg.forward(tape, tape.constant_copy(&pos_buf), true, &mut rng);
                        let kg_neg = dkg.forward(tape, fake, true, &mut rng);
                        let kg_loss = kinet_nn::loss::gan_discriminator_loss(kg_pos, kg_neg, 1.0);
                        loss = loss.add(kg_loss);
                    }
                    let loss_value = loss.with_value(|v| v[(0, 0)]);
                    if !loss_value.is_finite() {
                        return Err(SynthError::Training(format!(
                            "discriminator loss became non-finite ({loss_value}) at epoch \
                             {epoch}, step {step} — training diverged; lower `lr`, raise \
                             `batch_size`, or enable `clip_norm`"
                        )));
                    }
                    d_epoch += loss_value;
                    tape.backward(loss);
                    if cfg.clip_norm > 0.0 {
                        d_params.clip_grad_norm(cfg.clip_norm);
                    }
                    d_opt.step();
                    d_opt.zero_grad();
                }

                // ---- generator step ----
                {
                    // D's parameters enter as constants: the gradient flows
                    // through D into the fake batch, but no D weight
                    // gradient is computed.
                    g_tape.reset();
                    let tape = &g_tape;
                    let fake = generator.generate(tape, &c, cfg.tau, true, &mut rng);
                    let d_fake = d_m.forward(tape, fake.output, &c, true, &mut rng);
                    // Eq. 3: D_C = D_KG + D_M (λ_kg scales the KG term)
                    let d_c = if let Some(dkg) = &d_kg {
                        let kg_fake = dkg.forward(tape, fake.output, true, &mut rng);
                        d_fake.add(kg_fake.scale(cfg.lambda_kg))
                    } else {
                        d_fake
                    };
                    let mut loss = kinet_nn::loss::gan_generator_loss(d_c);
                    // BCE(C, Ĉ): condition consistency on each conditional head
                    for (&(spec_idx, head_idx, _), target) in
                        cond_heads.iter().zip(&mut cond_targets)
                    {
                        let off = cond_spec.offset(spec_idx);
                        for r in 0..c.rows() {
                            let w = target.cols();
                            target.row_mut(r).copy_from_slice(&c.row(r)[off..off + w]);
                        }
                        let ce = fake.head_logits[head_idx].softmax_cross_entropy(target);
                        loss = loss.add(ce.scale(cfg.lambda_cond));
                    }
                    if use_mask {
                        if let Some(pen) = self.mask_penalty(
                            &fake.head_logits,
                            &conditions,
                            &cond_spec,
                            &cond_heads,
                            &transformer,
                        ) {
                            loss = loss.add(pen.scale(cfg.lambda_kg));
                        }
                    }
                    let loss_value = loss.with_value(|v| v[(0, 0)]);
                    if !loss_value.is_finite() {
                        return Err(SynthError::Training(format!(
                            "generator loss became non-finite ({loss_value}) at epoch {epoch}, \
                             step {step} — training diverged; lower `lr`, raise `batch_size`, \
                             or enable `clip_norm`"
                        )));
                    }
                    g_epoch += loss_value;
                    tape.backward(loss);
                    if cfg.clip_norm > 0.0 {
                        g_params.clip_grad_norm(cfg.clip_norm);
                    }
                    g_opt.step();
                    g_opt.zero_grad();
                }
            }
            report.d_loss.push(d_epoch / steps as f32);
            report.g_loss.push(g_epoch / steps as f32);
            report.epoch_class_counts.push(class_counts);
        }

        Ok(Fitted {
            transformer,
            cond_spec,
            sampler,
            generator,
            d_m,
            d_kg,
            table: table.clone(),
            report,
        })
    }

    /// The differentiable knowledge penalty: probability mass assigned to
    /// KG-invalid categories of conditional columns, given each row's event
    /// class. Returns `None` when no mass is constrained.
    fn mask_penalty<'t>(
        &self,
        head_logits: &[Var<'t>],
        conditions: &[kinet_data::sampler::SampledCondition],
        cond_spec: &ConditionVectorSpec,
        cond_heads: &[(usize, usize, usize)],
        transformer: &DataTransformer,
    ) -> Option<Var<'t>> {
        let scope = self.kg.scope_field();
        let scope_spec_idx = cond_spec.column_index(scope)?;
        let batch = conditions.len();
        let mut any = false;
        let mut penalty: Option<Var<'t>> = None;
        for &(spec_idx, head_idx, schema_idx) in cond_heads {
            if spec_idx == scope_spec_idx {
                continue;
            }
            let name = transformer.schema().column(schema_idx).name();
            let enc = cond_spec.encoder(spec_idx);
            let w = enc.n_categories();
            let mut invalid = Matrix::zeros(batch, w);
            for (r, cond) in conditions.iter().enumerate() {
                // event of this row, decoded from the condition vector
                let off = cond_spec.offset(scope_spec_idx);
                let sw = cond_spec.encoder(scope_spec_idx).n_categories();
                let event_code = (0..sw).find(|&j| cond.vector[off + j] > 0.5).unwrap_or(0);
                let event = cond_spec
                    .encoder(scope_spec_idx)
                    .decode(event_code)
                    .unwrap_or("*")
                    .to_string();
                if let Some(valid) = self.kg.reasoner().valid_values(&event, name) {
                    for (j, cat) in enc.categories().iter().enumerate() {
                        if !valid.contains(cat) {
                            invalid[(r, j)] = 1.0;
                            any = true;
                        }
                    }
                }
            }
            let probs = head_logits[head_idx].softmax();
            let masked = probs.mul_const(invalid).sum().scale(1.0 / batch as f32);
            penalty = Some(match penalty {
                Some(p) => p.add(masked),
                None => masked,
            });
        }
        if any {
            penalty
        } else {
            None
        }
    }
}

impl TabularSynthesizer for KinetGan {
    fn name(&self) -> &str {
        "KiNETGAN"
    }

    fn fit(&mut self, table: &Table) -> Result<(), SynthError> {
        self.fitted = Some(self.train(table)?);
        Ok(())
    }

    fn sample(&self, n: usize, seed: u64) -> Result<Table, SynthError> {
        let f = self.fitted.as_ref().ok_or(SynthError::NotFitted)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let checker = (self.config.rejection_rounds > 0).then(|| {
            KgTableChecker::new(
                self.kg.compiled(),
                self.kg.base_interner(),
                f.table.schema(),
            )
        });
        let mut invalid_buf = Vec::new();
        kinet_data::synth::sample_in_batches(
            f.table.schema().clone(),
            n,
            self.config.batch_size,
            &mut rng,
            |want, rng| {
                // `sample_balance = None` reproduces the original class
                // marginals; LogFreq/Uniform boost rare classes in the
                // release itself (e.g. minority attack classes for NIDS).
                let conds = f.sampler.sample_batch(
                    &f.table,
                    &f.cond_spec,
                    self.config.sample_balance,
                    true,
                    want,
                    rng,
                )?;
                let c = Matrix::from_fn(want, f.cond_spec.width(), |r, j| conds[r].vector[j]);
                let tape = Tape::no_grad();
                let gen = f.generator.generate(&tape, &c, self.config.tau, false, rng);
                let mut decoded = f.transformer.inverse_transform(&gen.output.value())?;
                for _round in 0..self.config.rejection_rounds {
                    let Some(checker) = &checker else { break };
                    checker.invalid_rows(&decoded, &mut invalid_buf)?;
                    let invalid_rows: &[usize] = &invalid_buf;
                    if invalid_rows.is_empty() {
                        break;
                    }
                    // Fresh conditions for the retried rows, drawn with the
                    // same balance mode: a condition whose combination the
                    // generator never learned would otherwise be retried
                    // verbatim every round and fail every round, skewing
                    // the released class marginals toward the easy classes.
                    // An i.i.d. re-draw keeps every round's conditions
                    // distributed exactly like the first round's.
                    let retry_conds = f.sampler.sample_batch(
                        &f.table,
                        &f.cond_spec,
                        self.config.sample_balance,
                        true,
                        invalid_rows.len(),
                        rng,
                    )?;
                    let retry_c =
                        Matrix::from_fn(invalid_rows.len(), f.cond_spec.width(), |i, j| {
                            retry_conds[i].vector[j]
                        });
                    let tape = Tape::no_grad();
                    let regen = f
                        .generator
                        .generate(&tape, &retry_c, self.config.tau, false, rng);
                    let redecoded = f.transformer.inverse_transform(&regen.output.value())?;
                    for (i, &r) in invalid_rows.iter().enumerate() {
                        decoded.set_row(r, redecoded.row(i))?;
                    }
                }
                Ok(decoded)
            },
        )
    }

    fn critic_scores(&self, table: &Table) -> Option<Vec<f64>> {
        let f = self.fitted.as_ref()?;
        let encoded = f.transformer.transform_deterministic(table);
        let c = Matrix::from_fn(table.n_rows(), f.cond_spec.width(), |r, j| {
            f.cond_spec
                .vector_from_row(table, r)
                .map(|v| v[j])
                .unwrap_or(0.0)
        });
        let mut scores = f.d_m.score(&encoded, &c);
        if let Some(dkg) = &f.d_kg {
            scores = scores.add(&dkg.score(&encoded));
        }
        Some(scores.column(0).iter().map(|&v| v as f64).collect())
    }
}

impl std::fmt::Debug for KinetGan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KinetGan(kg={}, fitted={}, kg_mode={:?})",
            self.kg.name(),
            self.fitted.is_some(),
            self.config.kg_mode
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_data::Value;
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    fn tiny_data(n: usize, seed: u64) -> Table {
        LabSimulator::new(LabSimConfig::small(n, seed))
            .generate()
            .unwrap()
    }

    fn tiny_config() -> KinetGanConfig {
        KinetGanConfig {
            epochs: 2,
            batch_size: 32,
            z_dim: 16,
            gen_hidden: vec![32],
            disc_hidden: vec![32],
            max_modes: 3,
            ..KinetGanConfig::default()
        }
    }

    #[test]
    fn not_fitted_error() {
        let model = KinetGan::new(tiny_config(), NetworkKg::lab_default());
        assert!(matches!(model.sample(5, 0), Err(SynthError::NotFitted)));
    }

    #[test]
    fn fit_and_sample_roundtrip() {
        let data = tiny_data(300, 1);
        let mut model = KinetGan::new(tiny_config(), NetworkKg::lab_default());
        model.fit(&data).unwrap();
        let synth = model.sample(100, 7).unwrap();
        assert_eq!(synth.n_rows(), 100);
        assert_eq!(synth.schema(), data.schema());
        let report = model.report().unwrap();
        assert_eq!(report.d_loss.len(), 2);
        assert!(report.d_loss.iter().all(|v| v.is_finite()));
        assert!(report.g_loss.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let data = tiny_data(200, 2);
        let mut model = KinetGan::new(tiny_config(), NetworkKg::lab_default());
        model.fit(&data).unwrap();
        assert_eq!(model.sample(50, 3).unwrap(), model.sample(50, 3).unwrap());
    }

    #[test]
    fn kg_off_mode_trains_without_dkg() {
        let data = tiny_data(200, 3);
        let mut model = KinetGan::new(
            tiny_config().with_kg_mode(KgMode::Off),
            NetworkKg::lab_default(),
        );
        model.fit(&data).unwrap();
        assert!(model.sample(20, 0).is_ok());
    }

    #[test]
    fn soft_mask_mode_trains() {
        let data = tiny_data(200, 4);
        let mut model = KinetGan::new(
            tiny_config().with_kg_mode(KgMode::SoftMask),
            NetworkKg::lab_default(),
        );
        model.fit(&data).unwrap();
        assert!(model.sample(20, 0).is_ok());
    }

    #[test]
    fn critic_scores_available_after_fit() {
        let data = tiny_data(200, 5);
        let mut model = KinetGan::new(tiny_config(), NetworkKg::lab_default());
        assert!(model.critic_scores(&data).is_none());
        model.fit(&data).unwrap();
        let scores = model.critic_scores(&data).unwrap();
        assert_eq!(scores.len(), data.n_rows());
        assert!(scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn rejection_rounds_do_not_change_row_count() {
        let data = tiny_data(200, 6);
        let mut model = KinetGan::new(
            tiny_config().with_rejection_rounds(2),
            NetworkKg::lab_default(),
        );
        model.fit(&data).unwrap();
        assert_eq!(model.sample(64, 1).unwrap().n_rows(), 64);
    }

    #[test]
    fn divergent_training_fails_loudly_naming_the_epoch() {
        // An absurd learning rate with clipping disabled blows the weights
        // up within a few steps; the trainer must surface a SynthError
        // that names where it happened instead of training through NaNs
        // and emitting garbage.
        // Adam's scale-invariant updates plus batch-norm keep merely-large
        // rates finite, so the rate must be big enough to overflow f32
        // squares within a step or two.
        let data = tiny_data(200, 11);
        let mut cfg = tiny_config().with_epochs(30);
        cfg.lr = 1e30;
        cfg.clip_norm = 0.0;
        let mut model = KinetGan::new(cfg, NetworkKg::lab_default());
        let err = model.fit(&data).expect_err("divergence must be an error");
        let msg = err.to_string();
        assert!(
            matches!(err, SynthError::Training(_)),
            "divergence is a training error: {msg}"
        );
        assert!(
            msg.contains("non-finite") && msg.contains("epoch"),
            "error should name the non-finite loss and the epoch: {msg}"
        );
    }

    #[test]
    fn training_report_carries_utility_diagnostics() {
        let data = tiny_data(300, 12);
        let mut model = KinetGan::new(tiny_config().with_epochs(3), NetworkKg::lab_default());
        model.fit(&data).unwrap();
        let report = model.report().unwrap();
        // class diagnostics: one dictionary, one count row per epoch,
        // every drawn condition accounted for
        assert!(!report.class_names.is_empty());
        assert_eq!(report.epoch_class_counts.len(), 3);
        let steps = (data.n_rows() / model.config().batch_size).max(1);
        for counts in &report.epoch_class_counts {
            assert_eq!(counts.len(), report.class_names.len());
            let total: u64 = counts.iter().sum();
            assert_eq!(total as usize, steps * model.config().batch_size);
        }
    }

    #[test]
    fn log_freq_balance_conditions_on_minority_classes() {
        // On an imbalanced shard, log-frequency train-by-sampling must
        // draw conditions for rare classes far above their raw frequency;
        // a uniform row draw would leave them near-invisible.
        let data = tiny_data(400, 13);
        let mut model = KinetGan::new(tiny_config().with_epochs(2), NetworkKg::lab_default());
        model.fit(&data).unwrap();
        let report = model.report().unwrap();
        let totals: Vec<u64> = (0..report.class_names.len())
            .map(|i| report.epoch_class_counts.iter().map(|c| c[i]).sum())
            .collect();
        let grand: u64 = totals.iter().sum();
        for (name, &count) in report.class_names.iter().zip(&totals) {
            let freq = data
                .cat_column("event")
                .unwrap()
                .iter()
                .filter(|v| *v == name)
                .count() as f64
                / data.n_rows() as f64;
            if freq > 0.0 && freq < 0.05 {
                let share = count as f64 / grand as f64;
                assert!(
                    share > freq,
                    "rare class {name} (freq {freq:.3}) under-conditioned: {share:.3}"
                );
            }
        }
    }

    #[test]
    fn sample_balance_boosts_minority_conditions() {
        // A trivially learnable 95/5 two-class shard: with sampling-time
        // log-frequency balancing the release must carry clearly more
        // rare-class rows than the original marginal reproduces.
        let schema = kinet_data::Schema::new(vec![
            kinet_data::ColumnMeta::categorical("event"),
            kinet_data::ColumnMeta::continuous("x"),
        ]);
        let rows = (0..300)
            .map(|i| {
                let rare = i % 20 == 0; // 5%
                vec![
                    Value::cat(if rare { "rare" } else { "common" }),
                    Value::num(if rare { 10.0 } else { 0.0 } + (i % 7) as f64 * 0.01),
                ]
            })
            .collect();
        let data = Table::from_rows(schema, rows).unwrap();
        let store = kinet_kg::ontology::GraphBuilder::new("two-class").build();
        let kg = || NetworkKg::new("two-class", store.clone(), "event", &["event"]);
        let rare_share = |t: &Table| {
            t.cat_column("event")
                .unwrap()
                .iter()
                .filter(|v| v.as_str() == "rare")
                .count() as f64
                / t.n_rows() as f64
        };
        let cfg = tiny_config().with_epochs(80).with_kg_mode(KgMode::Off);
        let mut plain = KinetGan::new(cfg.clone(), kg());
        plain.fit(&data).unwrap();
        let mut boosted = KinetGan::new(
            cfg.with_sample_balance(kinet_data::sampler::BalanceMode::LogFreq),
            kg(),
        );
        boosted.fit(&data).unwrap();
        let plain_share = rare_share(&plain.sample(400, 3).unwrap());
        let boosted_share = rare_share(&boosted.sample(400, 3).unwrap());
        // log-frequency weight of the rare class is ln(16)/(ln(16)+ln(286))
        // ≈ 0.33 against a 5% marginal — the gap must be unmistakable
        // (diluted in practice by imperfect condition adherence).
        assert!(
            boosted_share > plain_share + 0.05,
            "log-freq sampling balance must emit more rare rows: \
             plain {plain_share:.3} vs boosted {boosted_share:.3}"
        );
    }

    #[test]
    fn empty_table_rejected() {
        let data = tiny_data(50, 7);
        let empty = Table::empty(data.schema().clone());
        let mut model = KinetGan::new(tiny_config(), NetworkKg::lab_default());
        assert!(model.fit(&empty).is_err());
    }

    #[test]
    fn rule_schema_type_conflict_fails_fit_on_both_pipelines() {
        // AllowedValues on a continuous column: the sampled category cannot
        // land on the numeric column, so training must abort instead of
        // silently keeping the original value. The string reference fails
        // the same way (`crates/core/tests/pipeline_oracle.rs`).
        let data = tiny_data(100, 9);
        let store = kinet_kg::ontology::GraphBuilder::new("bad")
            .allow_values("*", "dst_port", &["80"])
            .build();
        let kg = NetworkKg::new("bad", store, "event", &["event"]);
        let mut model = KinetGan::new(tiny_config(), kg);
        let err = model
            .fit(&data)
            .expect_err("type-conflicted KG must abort training");
        assert!(matches!(err, SynthError::Data(_)), "{err}");
    }

    #[test]
    fn validity_rate_on_clean_data_is_one() {
        let data = tiny_data(100, 8);
        let model = KinetGan::new(tiny_config(), NetworkKg::lab_default());
        assert!((model.validity_rate(&data) - 1.0).abs() < 1e-9);
    }
}
