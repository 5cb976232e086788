//! Bit-for-bit pins on the training step's other branches: the
//! `KgMode::Off`, `SoftMask` and `Both` trainers (no `D_KG`, the
//! differentiable mask penalty, both together) and the five baselines.
//! `workspace_smoke.rs` pins the `Neural` trainer; these cover the rest, so
//! a change to how the discriminator step records its graph cannot move a
//! loss or a released byte unnoticed. Every pin must hold at any
//! `KINET_THREADS`. The digests were recorded before the discriminator
//! step moved the generator forward onto a no-grad tape; TVAE's was
//! recorded before its step moved onto a reused tape.

use kinetgan_suite::baselines::{common::BaselineConfig, CtGan, OctGan, PateGan, TableGan, Tvae};
use kinetgan_suite::data::synth::TabularSynthesizer;
use kinetgan_suite::data::Table;
use kinetgan_suite::datasets::lab::{LabSimConfig, LabSimulator};
use kinetgan_suite::fleet::storage::fnv1a64;
use kinetgan_suite::model::{KgMode, KinetGan, KinetGanConfig};

/// `(mode, loss-bits FNV, release-CSV FNV)` per non-`Neural` KG mode.
const KG_MODE_PINS: [(KgMode, u64, u64); 3] = [
    (KgMode::Off, 0x0507_8540_59e4_96be, 0x54ab_822f_42fc_288d),
    (
        KgMode::SoftMask,
        0xfc3a_b2c6_c4c6_9aa6,
        0x66d0_93ae_d47e_5ef3,
    ),
    (KgMode::Both, 0x1ad3_4bc3_ad0b_2480, 0x68fc_8cae_bf16_42e9),
];

/// `(model name, release-CSV FNV)` per baseline.
const BASELINE_PINS: [(&str, u64); 5] = [
    ("CTGAN", 0x3965_00e8_1852_112c),
    ("OCTGAN", 0x25e5_d7c2_1aff_ba1d),
    ("TableGAN", 0x45e6_2045_0ae6_6645),
    ("PATEGAN", 0xdc34_a785_e464_1cb7),
    ("TVAE", 0x9e36_9aef_a218_bced),
];

fn lab(n: usize, seed: u64) -> Table {
    LabSimulator::new(LabSimConfig {
        n_records: n,
        seed,
        ..LabSimConfig::default()
    })
    .generate()
    .expect("lab generation succeeds")
}

fn csv_fnv(release: &Table) -> u64 {
    let mut buf = Vec::new();
    release.write_csv(&mut buf).expect("csv encoding succeeds");
    fnv1a64(&buf)
}

/// Trains one `small_shard`-style model in `mode`; returns the FNV of its
/// per-epoch losses (as raw bits) and of its release.
fn kg_mode_digests(mode: KgMode) -> (u64, u64) {
    let data = lab(150, 29);
    let mut model = KinetGan::new(
        KinetGanConfig::small_shard()
            .with_epochs(3)
            .with_seed(77)
            .with_kg_mode(mode),
        LabSimulator::knowledge_graph(),
    );
    model.fit(&data).expect("training succeeds");
    let report = model.report().expect("fitted model has a report");
    let mut bits = Vec::new();
    for v in report.d_loss.iter().chain(&report.g_loss) {
        bits.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let release = model.sample(80, 9).expect("sampling succeeds");
    (fnv1a64(&bits), csv_fnv(&release))
}

fn baseline_digest(name: &str) -> u64 {
    let cfg = BaselineConfig::fast_demo().with_epochs(2).with_seed(21);
    let mut model: Box<dyn TabularSynthesizer> = match name {
        "CTGAN" => Box::new(CtGan::new(cfg)),
        "OCTGAN" => Box::new(OctGan::new(cfg).with_ode_steps(2)),
        "TableGAN" => Box::new(TableGan::new(cfg)),
        "PATEGAN" => Box::new(PateGan::new(cfg).with_teachers(2)),
        "TVAE" => Box::new(Tvae::new(cfg)),
        other => panic!("unknown baseline {other}"),
    };
    model.fit(&lab(200, 17)).expect("training succeeds");
    csv_fnv(&model.sample(64, 5).expect("sampling succeeds"))
}

#[test]
fn kg_mode_trainers_match_pinned_digests_at_any_thread_count() {
    for threads in [1usize, 2, 4] {
        for (mode, loss_fnv, release_fnv) in KG_MODE_PINS {
            let got = kinetgan_suite::tensor::with_threads(threads, || kg_mode_digests(mode));
            assert_eq!(
                got,
                (loss_fnv, release_fnv),
                "{mode:?} digests changed at KINET_THREADS={threads}: got {:#018x}/{:#018x}",
                got.0,
                got.1
            );
        }
    }
}

#[test]
fn gan_baselines_match_pinned_release_digests_at_any_thread_count() {
    for threads in [1usize, 2, 4] {
        for (name, release_fnv) in BASELINE_PINS {
            let got = kinetgan_suite::tensor::with_threads(threads, || baseline_digest(name));
            assert_eq!(
                got, release_fnv,
                "{name} release changed at KINET_THREADS={threads}: got {got:#018x}"
            );
        }
    }
}
