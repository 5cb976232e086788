//! Experiment harness: what the `paper` binary (`paper [TARGET...]`,
//! one target per table or figure of the paper's evaluation, §V) needs —
//! dataset loading and the six-model roster, fitted once per dataset —
//! plus the gates' shared plumbing ([`gate`], [`write_json`]).
//!
//! Scale is controlled by environment variables so the same binary serves
//! CI smoke runs and full regenerations; an unparsable value, or a zero
//! row, epoch or probe count, is an error rather than a fallback:
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `KINET_EXP_ROWS` | 2000 | training rows per dataset |
//! | `KINET_EXP_EPOCHS` | 40 | generator training epochs |
//! | `KINET_EXP_SEED` | 7 | master seed |
//! | `KINET_EXP_PROBES` | 300 | privacy-attack probe count |

pub mod gate;

use kinet_baselines::{common::BaselineConfig, CtGan, OctGan, PateGan, TableGan, Tvae};
use kinet_data::synth::TabularSynthesizer;
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
    ///
    /// # Errors
    ///
    /// See [`ExpConfig::from_lookup`].
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|k| std::env::var_os(k).map(|v| v.to_string_lossy().into_owned()))
    }

    /// Reads the scale through `lookup` (variable name to value); an unset
    /// variable keeps its default.
    ///
    /// # Errors
    ///
    /// Names the variable and its value when the value is not an unsigned
    /// integer, or is zero for `KINET_EXP_ROWS`, `KINET_EXP_EPOCHS` or
    /// `KINET_EXP_PROBES`.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let get = |k: &str, default: usize, min: usize| match lookup(k) {
            None => Ok(default),
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= min => Ok(n),
                Ok(_) => Err(format!("{k}={v:?}: must be at least {min}")),
                Err(_) => Err(format!("{k}={v:?}: not an unsigned integer")),
            },
        };
        let d = Self::default();
        Ok(Self {
            rows: get("KINET_EXP_ROWS", d.rows, 1)?,
            epochs: get("KINET_EXP_EPOCHS", d.epochs, 1)?,
            seed: get("KINET_EXP_SEED", d.seed as usize, 0)? as u64,
            probes: get("KINET_EXP_PROBES", d.probes, 1)?,
        })
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
            model: Box::new(KinetGan::new(
                kinetgan_config(cfg),
                dataset.knowledge_graph(),
            )),
        },
    ]
}

/// The roster's KiNETGAN schedule at `cfg`'s scale (stock guidance and
/// balancing modes).
pub fn kinetgan_config(cfg: &ExpConfig) -> KinetGanConfig {
    KinetGanConfig {
        epochs: cfg.epochs,
        batch_size: 128,
        z_dim: 64,
        gen_hidden: vec![64, 64],
        disc_hidden: vec![64, 64],
        max_modes: 6,
        seed: cfg.seed,
        ..KinetGanConfig::default()
    }
}

/// A dataset's train/test split and the roster models fitted on its
/// training half, fitted once ([`fit_roster`]) and sampled per artifact.
pub struct RosterFits {
    /// The dataset the roster was fitted on.
    pub dataset: Dataset,
    /// Training half of the split (the fitted data).
    pub train: Table,
    /// Held-out half of the split.
    pub test: Table,
    /// The models whose fit succeeded, in roster order; a failed fit is
    /// reported on stderr and leaves its model out of every artifact.
    pub models: Vec<NamedModel>,
}

/// Loads `dataset` at `cfg`'s scale and fits its [`model_roster`] once.
pub fn fit_roster(dataset: Dataset, cfg: &ExpConfig) -> RosterFits {
    let (train, test) = dataset.load(cfg);
    let models = model_roster(dataset, cfg)
        .into_iter()
        .filter_map(|mut named| match named.model.fit(&train) {
            Ok(()) => Some(named),
            Err(e) => {
                eprintln!("{} on {}: training failed: {e}", named.name, dataset.name());
                None
            }
        })
        .collect();
    RosterFits {
        dataset,
        train,
        test,
        models,
    }
}

impl RosterFits {
    /// Each fitted model with its release at `seed`, sized like the
    /// training set; a failed sample is reported on stderr and skipped.
    pub fn releases(&self, seed: u64) -> Vec<(&NamedModel, Table)> {
        let mut releases = Vec::new();
        for named in &self.models {
            match named.model.sample(self.train.n_rows(), seed) {
                Ok(release) => releases.push((named, release)),
                Err(e) => eprintln!("{}: sampling failed: {e}", named.name),
            }
        }
        releases
    }
}

/// Writes an experiment result as JSON under [`gate::fresh_dir`].
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_json<T: Serialize>(id: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = gate::fresh_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny configuration for unit tests of the harness itself.
    fn smoke() -> ExpConfig {
        ExpConfig {
            rows: 250,
            epochs: 2,
            seed: 3,
            probes: 40,
        }
    }

    #[test]
    fn env_config_defaults() {
        let cfg = ExpConfig::default();
        assert_eq!(cfg.rows, 2000);
        assert_eq!(cfg.epochs, 40);
        let unset = ExpConfig::from_lookup(|_| None).unwrap();
        assert_eq!(
            (unset.rows, unset.epochs, unset.seed, unset.probes),
            (2000, 40, 7, 300)
        );
    }

    #[test]
    fn env_config_rejects_unparsable_and_zero_values() {
        let with = |key: &'static str, value: &'static str| {
            ExpConfig::from_lookup(move |k| (k == key).then(|| value.to_string()))
        };
        let cfg = with("KINET_EXP_SEED", "0").unwrap();
        assert_eq!(cfg.seed, 0);
        assert_eq!(with("KINET_EXP_ROWS", "250").unwrap().rows, 250);
        for key in [
            "KINET_EXP_ROWS",
            "KINET_EXP_EPOCHS",
            "KINET_EXP_PROBES",
            "KINET_EXP_SEED",
        ] {
            for bad in ["abc", "-1", "", "2.5"] {
                let err = with(key, bad).unwrap_err();
                assert!(
                    err.contains(key) && err.contains(&format!("{bad:?}")),
                    "{err}"
                );
            }
        }
        for key in ["KINET_EXP_ROWS", "KINET_EXP_EPOCHS", "KINET_EXP_PROBES"] {
            let err = with(key, "0").unwrap_err();
            assert!(err.contains(key) && err.contains("\"0\""), "{err}");
        }
    }

    #[test]
    fn write_json_writes_under_the_fresh_dir() {
        let path = write_json("write_json_test", &[1, 2, 3]).unwrap();
        assert_eq!(path.parent(), Some(gate::fresh_dir().as_path()));
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "[\n  1,\n  2,\n  3\n]"
        );
    }

    #[test]
    fn datasets_load_and_split() {
        let cfg = smoke();
        for ds in [Dataset::Lab, Dataset::Unsw] {
            let (train, test) = ds.load(&cfg);
            assert!(train.n_rows() > test.n_rows());
            assert!(train.schema().index_of(ds.label_column()).is_some());
        }
    }

    #[test]
    fn roster_has_six_models_ending_with_kinetgan() {
        let roster = model_roster(Dataset::Lab, &smoke());
        assert_eq!(roster.len(), 6);
        assert_eq!(roster.last().unwrap().name, "KiNETGAN");
    }

    #[test]
    fn smoke_fit_and_release() {
        let fits = fit_roster(Dataset::Lab, &smoke());
        assert_eq!(fits.models.len(), 6, "every roster model fits");
        let releases = fits.releases(1);
        assert_eq!(releases.len(), 6);
        for (named, release) in &releases {
            assert_eq!(release.n_rows(), fits.train.n_rows(), "{}", named.name);
        }
    }
}
