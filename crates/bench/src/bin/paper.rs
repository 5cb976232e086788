//! `paper [TARGET...]` regenerates the paper's evaluation (§V) and the
//! extra experiments of `DESIGN.md` §4, writing
//! `target/experiments/<target>.json` per target: `table1` (Table I),
//! `figure3`/`figure4` (TSTR utility, Lab/UNSW), `figure5`…`figure7`
//! (re-identification, attribute and membership inference on Lab),
//! `ablation` (X1) and `distributed` (X2). No target means all of them.
//!
//! Each dataset's roster is fitted once, on first use by a requested
//! target, and every target samples each fitted model at its own release
//! seed. Scale comes from the `KINET_EXP_*` variables (see the crate
//! docs); a bad value or an unknown target exits 1.

use kinet_bench::{fit_roster, kinetgan_config, write_json, Dataset, ExpConfig, RosterFits};
use kinet_data::sampler::BalanceMode;
use kinet_data::synth::TabularSynthesizer;
use kinet_data::DataError;
use kinet_eval::metrics;
use kinet_eval::privacy::{
    attribute_inference_attack, membership_inference_attack, reidentification_attack,
};
use kinet_eval::utility::evaluate_tstr;
use kinet_fleet::{FleetConfig, FleetReport, FleetSim, ModelKind, SharingPolicy};
use kinetgan::{KgMode, KinetGan, KinetGanConfig};
use serde::Serialize;
use std::cell::LazyCell;

const TARGETS: [&str; 8] = [
    "table1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "ablation",
    "distributed",
];

fn main() {
    let mut wanted = Vec::new();
    for arg in std::env::args().skip(1) {
        match TARGETS.iter().find(|t| **t == arg) {
            Some(t) => wanted.push(*t),
            None => {
                eprintln!("paper: unknown target {arg:?}");
                eprintln!(
                    "usage: paper [TARGET...], TARGET one of {}",
                    TARGETS.join(" ")
                );
                std::process::exit(1);
            }
        }
    }
    let cfg = ExpConfig::from_env().unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(1);
    });
    println!(
        "paper (rows={}, epochs={}, seed={}, probes={})\n",
        cfg.rows, cfg.epochs, cfg.seed, cfg.probes
    );
    let lab = LazyCell::new(|| fit_roster(Dataset::Lab, &cfg));
    let unsw = LazyCell::new(|| fit_roster(Dataset::Unsw, &cfg));
    for target in TARGETS {
        if !wanted.is_empty() && !wanted.contains(&target) {
            continue;
        }
        println!("── {target}");
        let written = match target {
            "table1" => write_json(target, &table1(&[&*lab, &*unsw], cfg.seed ^ 0x11)),
            "figure3" => write_json(target, &utility(&lab, cfg.seed ^ 0x22).unwrap_or_else(fail)),
            "figure4" => write_json(
                target,
                &utility(&unsw, cfg.seed ^ 0x33).unwrap_or_else(fail),
            ),
            "figure5" => write_json(target, &figure5(&lab, &cfg)),
            "figure6" => write_json(target, &figure6(&lab, &cfg)),
            "figure7" => write_json(target, &figure7(&lab, &cfg)),
            "ablation" => write_json(target, &ablation(&cfg)),
            _ => write_json(target, &distributed(&cfg)),
        };
        match written {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write {target}.json: {e}\n"),
        }
    }
}

/// Reports an evaluation that cannot run at this scale and exits 1.
fn fail<T>(e: DataError) -> T {
    eprintln!("paper: {e}");
    std::process::exit(1);
}

/// One row of Table I.
#[derive(Serialize)]
struct FidelityRow {
    model: String,
    dataset: String,
    emd: f64,
    combined: f64,
}

/// One bar of Figures 3–4: the classifier panel trained on `source`.
#[derive(Serialize)]
struct UtilityRow {
    source: String,
    dataset: String,
    mean_accuracy: f64,
    per_classifier: Vec<(String, f64)>,
}

/// One bar of Figures 5–7: an attack's accuracy against a model's release.
#[derive(Serialize)]
struct PrivacyRow {
    model: String,
    attack: String,
    accuracy: f64,
}

impl PrivacyRow {
    fn new(model: &str, attack: impl Into<String>, accuracy: f64) -> Self {
        Self {
            model: model.into(),
            attack: attack.into(),
            accuracy,
        }
    }
}

/// Table I: distance between synthetic and original data.
fn table1(fits: &[&RosterFits], seed: u64) -> Vec<FidelityRow> {
    println!("Table I — distance between synthetic and original data");
    println!(
        "{:<10} | {:<9} | {:>7} {:>7}",
        "Model", "Dataset", "EMD", "Dist"
    );
    let mut rows = Vec::new();
    for fit in fits {
        for (named, release) in fit.releases(seed) {
            let report = metrics::fidelity(&fit.train, &release);
            let dataset = fit.dataset.name();
            println!(
                "{:<10} | {dataset:<9} | {:>7.3} {:>7.3}",
                named.name, report.emd, report.combined
            );
            rows.push(FidelityRow {
                model: named.name.into(),
                dataset: dataset.into(),
                emd: report.emd,
                combined: report.combined,
            });
        }
    }
    rows
}

/// Figures 3–4: NIDS accuracy of the classifier panel trained on real
/// data (the Baseline bar) and on each model's release.
fn utility(fit: &RosterFits, seed: u64) -> Result<Vec<UtilityRow>, DataError> {
    let (train, test) = (&fit.train, &fit.test);
    let label = fit.dataset.label_column();
    println!("NIDS accuracy on {}", fit.dataset.name());
    let baseline = evaluate_tstr("Baseline", train, test, train, label)?;
    let mut rows = Vec::new();
    let mut push = |source: &str, mean_accuracy: f64, per_classifier| {
        println!("{source:<10} mean accuracy {mean_accuracy:.3}");
        rows.push(UtilityRow {
            source: source.into(),
            dataset: fit.dataset.name().into(),
            mean_accuracy,
            per_classifier,
        });
    };
    push("Baseline", baseline.mean_accuracy, baseline.per_classifier);
    for (named, release) in fit.releases(seed) {
        match evaluate_tstr(named.name, &release, test, train, label) {
            Ok(report) => push(named.name, report.mean_accuracy, report.per_classifier),
            Err(e) => eprintln!("{}: evaluation failed: {e}", named.name),
        }
    }
    Ok(rows)
}

/// Figure 5: re-identification attack accuracy at 30/60/90 % attacker
/// overlap with the training data.
fn figure5(lab: &RosterFits, cfg: &ExpConfig) -> Vec<PrivacyRow> {
    println!("re-identification attack on {}", lab.dataset.name());
    println!("{:<10} | {:>7} {:>7} {:>7}", "Model", "30%", "60%", "90%");
    let mut rows = Vec::new();
    for (named, release) in lab.releases(cfg.seed ^ 0x55) {
        print!("{:<10} |", named.name);
        for overlap in [0.3, 0.6, 0.9] {
            let acc = reidentification_attack(&lab.train, &release, overlap, cfg.probes, cfg.seed);
            print!(" {acc:>7.3}");
            let attack = format!("reid@{:.0}", overlap * 100.0);
            rows.push(PrivacyRow::new(named.name, attack, acc));
        }
        println!();
    }
    rows
}

/// Figure 6: attribute-inference attack accuracy (sensitive attribute:
/// the event class).
fn figure6(lab: &RosterFits, cfg: &ExpConfig) -> Vec<PrivacyRow> {
    let sensitive = lab.dataset.label_column();
    println!(
        "attribute inference of {sensitive:?} on {}",
        lab.dataset.name()
    );
    let mut rows = Vec::new();
    for (named, release) in lab.releases(cfg.seed ^ 0x66) {
        match attribute_inference_attack(&lab.train, &release, sensitive, cfg.probes) {
            Ok(acc) => {
                println!("{:<10} attack accuracy {acc:.3}", named.name);
                rows.push(PrivacyRow::new(named.name, "attr-inf", acc));
            }
            Err(e) => eprintln!("{}: attack failed: {e}", named.name),
        }
    }
    rows
}

/// Figure 7: membership-inference attack accuracy, white-box (the
/// model's critic scores) and full black-box (release only).
fn figure7(lab: &RosterFits, cfg: &ExpConfig) -> Vec<PrivacyRow> {
    let n_probe = cfg.probes.min(lab.train.n_rows()).min(lab.test.n_rows());
    let probe_idx: Vec<usize> = (0..n_probe).collect();
    let members = lab.train.select_rows(&probe_idx);
    let non_members = lab.test.select_rows(&probe_idx);
    // white-box critic scores are taken over members ⧺ non-members
    let mut probe = members.clone();
    probe.append(&non_members).expect("same schema");
    println!(
        "membership inference on {} ({n_probe} members / {n_probe} non-members)",
        lab.dataset.name()
    );
    println!("{:<10} | {:>7} {:>7}", "Model", "WB", "FBB");
    let mut rows = Vec::new();
    for (named, release) in lab.releases(cfg.seed ^ 0x77) {
        let critic = named.model.critic_scores(&probe);
        let report =
            membership_inference_attack(&members, &non_members, &release, critic.as_deref());
        let (wb, fbb) = (report.white_box, report.full_black_box);
        println!("{:<10} | {wb:>7.3} {fbb:>7.3}", named.name);
        rows.push(PrivacyRow::new(named.name, "mi-wb", wb));
        rows.push(PrivacyRow::new(named.name, "mi-fbb", fbb));
    }
    rows
}

#[derive(Serialize)]
struct AblationRow {
    variant: String,
    validity: f64,
    emd: f64,
    combined: f64,
    mean_accuracy: f64,
}

/// X1: KiNETGAN with the knowledge guidance and data balancing switched
/// between modes, each variant its own fit on the lab data; measures the
/// release's KG validity, fidelity and downstream utility.
fn ablation(cfg: &ExpConfig) -> Vec<AblationRow> {
    let dataset = Dataset::Lab;
    let (train, test) = dataset.load(cfg);
    println!("KiNETGAN design choices on {}", dataset.name());
    println!(
        "{:<28} | {:>8} {:>7} {:>8} {:>8}",
        "Variant", "validity", "EMD", "combined", "accuracy"
    );
    let variants = [
        (
            "full (neural D_KG, uniform)",
            KgMode::Neural,
            BalanceMode::Uniform,
        ),
        ("soft-mask only", KgMode::SoftMask, BalanceMode::Uniform),
        ("both guidance terms", KgMode::Both, BalanceMode::Uniform),
        (
            "no knowledge (ablate D_KG)",
            KgMode::Off,
            BalanceMode::Uniform,
        ),
        ("log-freq balancing", KgMode::Neural, BalanceMode::LogFreq),
        ("no balancing", KgMode::Neural, BalanceMode::None),
    ];
    let mut rows = Vec::new();
    for (name, kg_mode, balance) in variants {
        let mcfg = KinetGanConfig {
            kg_mode,
            balance,
            ..kinetgan_config(cfg)
        };
        let mut model = KinetGan::new(mcfg, dataset.knowledge_graph());
        let fitted = model.fit(&train);
        let release = match fitted.and_then(|()| model.sample(train.n_rows(), cfg.seed ^ 0x88)) {
            Ok(release) => release,
            Err(e) => {
                eprintln!("{name}: {e}");
                continue;
            }
        };
        let validity = model.validity_rate(&release);
        let fid = metrics::fidelity(&train, &release);
        let utility = evaluate_tstr(name, &release, &test, &train, dataset.label_column())
            .map_or(f64::NAN, |u| u.mean_accuracy);
        println!(
            "{name:<28} | {validity:>8.3} {:>7.3} {:>8.3} {utility:>8.3}",
            fid.emd, fid.combined
        );
        rows.push(AblationRow {
            variant: name.into(),
            validity,
            emd: fid.emd,
            combined: fid.combined,
            mean_accuracy: utility,
        });
    }
    rows
}

/// X2: the deployment scenario of §I/§VI — sharing raw traffic vs.
/// KiNETGAN or CTGAN synthetic traffic vs. keeping data local, swept
/// over fleet sizes.
fn distributed(cfg: &ExpConfig) -> Vec<FleetReport> {
    // The small-shard schedule needs a real epoch budget (the fleet
    // defaults to 60); `KINET_EXP_EPOCHS` scales the sweep down for CI.
    println!("policy × fleet-size sweep");
    let mut reports = Vec::new();
    for n_devices in [2usize, 4, 8] {
        for policy in [
            SharingPolicy::Raw,
            SharingPolicy::Synthetic(ModelKind::KinetGan),
            SharingPolicy::Synthetic(ModelKind::CtGan),
            SharingPolicy::LocalOnly,
        ] {
            let sim = FleetSim::new(FleetConfig {
                n_devices,
                rows_per_device: (cfg.rows / n_devices).max(200),
                test_records: cfg.rows / 2,
                policy,
                model_epochs: cfg.epochs,
                seed: cfg.seed,
                ..FleetConfig::default()
            });
            match sim.run() {
                Ok(report) => {
                    println!("{report}");
                    reports.push(report);
                }
                Err(e) => eprintln!("simulation failed: {e}"),
            }
        }
    }
    reports
}
