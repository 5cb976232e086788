//! Experiment harness shared by the `table1`/`figure*` binaries and the
//! Criterion benches: dataset loading, the six-model roster, and runners
//! for every table and figure in the paper's evaluation (§V).
//!
//! Scale is controlled by environment variables so the same binaries serve
//! CI smoke runs and full regenerations:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `KINET_EXP_ROWS` | 2000 | training rows per dataset |
//! | `KINET_EXP_EPOCHS` | 40 | generator training epochs |
//! | `KINET_EXP_SEED` | 7 | master seed |
//! | `KINET_EXP_PROBES` | 300 | privacy-attack probe count |

pub mod gate;

use kinet_baselines::{common::BaselineConfig, CtGan, OctGan, PateGan, TableGan, Tvae};
use kinet_data::synth::{SynthError, TabularSynthesizer};
use kinet_data::Table;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_datasets::unsw::{UnswSimConfig, UnswSimulator};
use kinet_kg::NetworkKg;
use kinetgan::{KinetGan, KinetGanConfig};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::path::PathBuf;

/// Scale knobs for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Training rows per dataset.
    pub rows: usize,
    /// Generator training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Privacy-attack probe count.
    pub probes: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            rows: 2000,
            epochs: 40,
            seed: 7,
            probes: 300,
        }
    }
}

impl ExpConfig {
    /// Reads the scale from the `KINET_EXP_*` environment variables.
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Self {
            rows: get("KINET_EXP_ROWS", 2000),
            epochs: get("KINET_EXP_EPOCHS", 40),
            seed: get("KINET_EXP_SEED", 7) as u64,
            probes: get("KINET_EXP_PROBES", 300),
        }
    }

    /// A tiny configuration for unit tests of the harness itself.
    pub fn smoke() -> Self {
        Self {
            rows: 250,
            epochs: 2,
            seed: 3,
            probes: 40,
        }
    }
}

/// The two evaluation datasets of §IV-B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dataset {
    /// The simulated lab IoT capture.
    Lab,
    /// The UNSW-NB15-shaped modeling view.
    Unsw,
}

impl Dataset {
    /// Display name matching the paper's table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Lab => "Lab Data",
            Dataset::Unsw => "UNSW-NB15",
        }
    }

    /// Label column for NIDS classifiers.
    pub fn label_column(&self) -> &'static str {
        match self {
            Dataset::Lab => LabSimulator::label_column(),
            Dataset::Unsw => UnswSimulator::label_column(),
        }
    }

    /// The dataset's knowledge graph.
    pub fn knowledge_graph(&self) -> NetworkKg {
        match self {
            Dataset::Lab => LabSimulator::knowledge_graph(),
            Dataset::Unsw => UnswSimulator::knowledge_graph(),
        }
    }

    /// Generates `(train, test)` splits at the configured scale.
    pub fn load(&self, cfg: &ExpConfig) -> (Table, Table) {
        let total = cfg.rows + cfg.rows / 2;
        let table = match self {
            Dataset::Lab => LabSimulator::new(LabSimConfig {
                n_records: total,
                seed: cfg.seed,
                ..LabSimConfig::default()
            })
            .generate()
            .expect("lab generation is infallible for valid configs"),
            Dataset::Unsw => {
                let full = UnswSimulator::new(UnswSimConfig {
                    n_records: total,
                    seed: cfg.seed,
                })
                .generate()
                .expect("unsw generation is infallible for valid configs");
                UnswSimulator::modeling_view(&full).expect("modeling columns exist")
            }
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xabcd);
        table.train_test_split(1.0 / 3.0, &mut rng)
    }
}

/// A named synthesizer under test.
pub struct NamedModel {
    /// Display name (paper row label).
    pub name: &'static str,
    /// The model behind the shared trait.
    pub model: Box<dyn TabularSynthesizer>,
}

/// Builds the paper's six-model roster for a dataset.
pub fn model_roster(dataset: Dataset, cfg: &ExpConfig) -> Vec<NamedModel> {
    let base = BaselineConfig {
        epochs: cfg.epochs,
        batch_size: 128,
        z_dim: 64,
        hidden: vec![64, 64],
        max_modes: 6,
        seed: cfg.seed,
        ..BaselineConfig::default()
    };
    let kcfg = KinetGanConfig {
        epochs: cfg.epochs,
        batch_size: 128,
        z_dim: 64,
        gen_hidden: vec![64, 64],
        disc_hidden: vec![64, 64],
        max_modes: 6,
        seed: cfg.seed,
        ..KinetGanConfig::default()
    };
    vec![
        NamedModel {
            name: "CTGAN",
            model: Box::new(CtGan::new(base.clone())),
        },
        NamedModel {
            name: "OCTGAN",
            model: Box::new(OctGan::new(base.clone()).with_ode_steps(3)),
        },
        NamedModel {
            name: "PATEGAN",
            model: Box::new(PateGan::new(base.clone()).with_teachers(3)),
        },
        NamedModel {
            name: "TABLEGAN",
            model: Box::new(TableGan::new(base.clone()).with_label_column(dataset.label_column())),
        },
        NamedModel {
            name: "TVAE",
            model: Box::new(Tvae::new(BaselineConfig {
                lr: 1e-3,
                ..base.clone()
            })),
        },
        NamedModel {
            name: "KiNETGAN",
            model: Box::new(KinetGan::new(kcfg, dataset.knowledge_graph())),
        },
    ]
}

/// Fits a model and samples a release the size of the training set.
///
/// # Errors
///
/// Propagates training/sampling failures.
pub fn fit_and_release(
    named: &mut NamedModel,
    train: &Table,
    seed: u64,
) -> Result<Table, SynthError> {
    named.model.fit(train)?;
    named.model.sample(train.n_rows(), seed)
}

/// Writes an experiment result as JSON under `target/experiments/`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json<T: Serialize>(id: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

/// Gate-binary wrap-up for a recorded journal: prints the one-line
/// per-phase tick/row summary and writes the journal's last
/// [`kinet_obs::DUMP_TAIL`] records to
/// `target/experiments/<gate>_obs_dump.json`, pass or fail, so each CI
/// upload step ships its own gate's last moments.
pub fn obs_wrapup(gate: &str, journal: &kinet_obs::Recorder) {
    println!("{}", journal.phase_summary());
    let id = format!("{gate}_obs_dump");
    match write_json(&id, &journal.tail_snapshot(kinet_obs::DUMP_TAIL)) {
        Ok(path) => println!("journal tail dumped to {}", path.display()),
        Err(e) => eprintln!("could not write {id}.json: {e}"),
    }
}

/// One row of Table I.
#[derive(Clone, Debug, Serialize)]
pub struct FidelityRow {
    /// Model name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean per-column EMD.
    pub emd: f64,
    /// Combined L1/L2 distance.
    pub combined: f64,
}

/// One bar of Figures 3–4.
#[derive(Clone, Debug, Serialize)]
pub struct UtilityRow {
    /// Training source (model or Baseline).
    pub source: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean accuracy over the classifier panel.
    pub mean_accuracy: f64,
    /// Per-classifier accuracies.
    pub per_classifier: Vec<(String, f64)>,
}

/// One bar group of Figures 5–7.
#[derive(Clone, Debug, Serialize)]
pub struct PrivacyRow {
    /// Model name.
    pub model: String,
    /// Attack label (e.g. `reid@30`, `attr-inf`, `mi-wb`).
    pub attack: String,
    /// Attack accuracy (lower is more private, except where noted).
    pub accuracy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_config_defaults() {
        let cfg = ExpConfig::default();
        assert_eq!(cfg.rows, 2000);
        assert_eq!(cfg.epochs, 40);
    }

    #[test]
    fn datasets_load_and_split() {
        let cfg = ExpConfig::smoke();
        for ds in [Dataset::Lab, Dataset::Unsw] {
            let (train, test) = ds.load(&cfg);
            assert!(train.n_rows() > test.n_rows());
            assert!(train.schema().index_of(ds.label_column()).is_some());
        }
    }

    #[test]
    fn roster_has_six_models_ending_with_kinetgan() {
        let roster = model_roster(Dataset::Lab, &ExpConfig::smoke());
        assert_eq!(roster.len(), 6);
        assert_eq!(roster.last().unwrap().name, "KiNETGAN");
    }

    #[test]
    fn smoke_fit_and_release() {
        let cfg = ExpConfig::smoke();
        let (train, _) = Dataset::Lab.load(&cfg);
        let mut roster = model_roster(Dataset::Lab, &cfg);
        // just the first model in smoke mode; the bins cover the rest
        let release = fit_and_release(&mut roster[0], &train, 1).unwrap();
        assert_eq!(release.n_rows(), train.n_rows());
    }
}
