//! Conformance suite: every generative model in the workspace satisfies
//! the `TabularSynthesizer` contract identically.

use kinet_baselines::{common::BaselineConfig, CtGan, OctGan, PateGan, TableGan, Tvae};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::Table;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinetgan::{KinetGan, KinetGanConfig};

fn roster() -> Vec<Box<dyn TabularSynthesizer>> {
    let base = BaselineConfig {
        epochs: 2,
        batch_size: 32,
        z_dim: 16,
        hidden: vec![32],
        max_modes: 3,
        ..BaselineConfig::default()
    };
    let kcfg = KinetGanConfig {
        epochs: 2,
        batch_size: 32,
        z_dim: 16,
        gen_hidden: vec![32],
        disc_hidden: vec![32],
        max_modes: 3,
        ..KinetGanConfig::default()
    };
    vec![
        Box::new(KinetGan::new(kcfg, LabSimulator::knowledge_graph())),
        Box::new(CtGan::new(base.clone())),
        Box::new(Tvae::new(base.clone())),
        Box::new(TableGan::new(base.clone())),
        Box::new(PateGan::new(base.clone()).with_teachers(2)),
        Box::new(OctGan::new(base).with_ode_steps(2)),
    ]
}

fn data() -> Table {
    LabSimulator::new(LabSimConfig::small(300, 31))
        .generate()
        .unwrap()
}

#[test]
fn every_model_rejects_sampling_before_fit() {
    for model in roster() {
        assert!(
            matches!(model.sample(5, 0), Err(SynthError::NotFitted)),
            "{} must return NotFitted",
            model.name()
        );
    }
}

#[test]
fn every_model_fits_and_samples_with_matching_schema() {
    let train = data();
    for mut model in roster() {
        model
            .fit(&train)
            .unwrap_or_else(|e| panic!("{} fit failed: {e}", model.name()));
        let release = model
            .sample(64, 3)
            .unwrap_or_else(|e| panic!("{} sample failed: {e}", model.name()));
        assert_eq!(release.n_rows(), 64, "{}", model.name());
        assert_eq!(release.schema(), train.schema(), "{}", model.name());
    }
}

#[test]
fn every_model_samples_deterministically_per_seed() {
    let train = data();
    for mut model in roster() {
        model.fit(&train).unwrap();
        let a = model.sample(32, 11).unwrap();
        let b = model.sample(32, 11).unwrap();
        assert_eq!(
            a,
            b,
            "{} must be deterministic for a fixed seed",
            model.name()
        );
        let c = model.sample(32, 12).unwrap();
        assert_ne!(a, c, "{} must vary across seeds", model.name());
        let again = model.sample(32, 11).unwrap();
        assert_eq!(
            a,
            again,
            "{} must not carry state from one release into the next",
            model.name()
        );
    }
}

#[test]
fn every_model_rejects_empty_training_data() {
    let empty = Table::empty(data().schema().clone());
    for mut model in roster() {
        assert!(
            model.fit(&empty).is_err(),
            "{} must reject empty tables",
            model.name()
        );
    }
}

#[test]
fn model_names_are_the_paper_rows() {
    let names: Vec<String> = roster().iter().map(|m| m.name().to_string()).collect();
    for expected in ["KiNETGAN", "CTGAN", "TVAE", "TABLEGAN", "PATEGAN", "OCTGAN"] {
        assert!(
            names.iter().any(|n| n.eq_ignore_ascii_case(expected)),
            "missing {expected} in {names:?}"
        );
    }
}
