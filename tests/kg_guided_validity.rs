//! The paper's core claim, as an executable test: knowledge guidance
//! raises the domain validity of generated data.

use kinet_data::synth::TabularSynthesizer;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinetgan::{KgMode, KinetGan, KinetGanConfig};

fn config(kg_mode: KgMode) -> KinetGanConfig {
    KinetGanConfig {
        epochs: 10,
        batch_size: 64,
        z_dim: 32,
        gen_hidden: vec![64],
        disc_hidden: vec![64],
        max_modes: 4,
        kg_mode,
        seed: 77,
        ..KinetGanConfig::default()
    }
}

#[test]
fn rejection_resampling_pushes_validity_toward_one() {
    let data = LabSimulator::new(LabSimConfig::small(700, 41))
        .generate()
        .unwrap();
    let mut plain = KinetGan::new(config(KgMode::Neural), LabSimulator::knowledge_graph());
    plain.fit(&data).unwrap();
    let release_plain = plain.sample(300, 1).unwrap();
    let v_plain = plain.validity_rate(&release_plain);

    let mut rejecting = KinetGan::new(
        config(KgMode::Neural).with_rejection_rounds(4),
        LabSimulator::knowledge_graph(),
    );
    rejecting.fit(&data).unwrap();
    let release_rej = rejecting.sample(300, 1).unwrap();
    let v_rej = rejecting.validity_rate(&release_rej);

    assert!(
        v_rej >= v_plain - 0.02,
        "rejection resampling must not reduce validity: {v_rej} vs {v_plain}"
    );
}

#[test]
fn real_lab_data_is_fully_valid_under_the_kg() {
    // The simulator and the KG must agree exactly — the foundation of
    // every knowledge-guidance measurement.
    let data = LabSimulator::new(LabSimConfig::small(1000, 43))
        .generate()
        .unwrap();
    let model = KinetGan::new(config(KgMode::Off), LabSimulator::knowledge_graph());
    assert!((model.validity_rate(&data) - 1.0).abs() < 1e-12);
}
