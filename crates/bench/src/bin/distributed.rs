//! Distributed scalability bench (extra experiment X2 in `DESIGN.md`):
//! the deployment scenario of §I/§VI — sharing raw traffic vs. KiNETGAN
//! synthetic traffic vs. keeping data local, swept over fleet sizes.

use kinet_bench::{write_json, ExpConfig};
use kinet_fleet::{FleetConfig, FleetSim, ModelKind, SharingPolicy};

fn main() {
    let cfg = ExpConfig::from_env();
    // The small-shard schedule needs a real epoch budget (the fleet
    // defaults to 60); the old `.min(12)` cap would undertrain it back to
    // label noise. `KINET_EXP_EPOCHS` still scales the sweep down for CI.
    println!(
        "distributed — policy × fleet-size sweep (epochs={})\n",
        cfg.epochs
    );
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
        println!();
    }
    match write_json("distributed", &reports) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
