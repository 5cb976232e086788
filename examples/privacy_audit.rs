//! Privacy audit of a KiNETGAN release: the three attacks of §V-C run
//! against one fitted model (Figures 5–7 scenario).
//!
//! ```sh
//! cargo run --release --example privacy_audit
//! ```

use kinet_data::synth::TabularSynthesizer;
use kinet_data::Table;
use kinet_datasets::lab::{LabSimConfig, LabSimulator};
use kinet_eval::privacy::{
    attribute_inference_attack, membership_inference_attack, reidentification_attack,
};
use kinetgan::{KinetGan, KinetGanConfig};
use rand::{rngs::StdRng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = LabSimulator::new(LabSimConfig::small(2400, 9)).generate()?;
    let mut rng = StdRng::seed_from_u64(0);
    let (train, holdout) = data.train_test_split(0.33, &mut rng);

    let mut model = KinetGan::new(
        KinetGanConfig::fast_demo().with_epochs(20),
        LabSimulator::knowledge_graph(),
    );
    model.fit(&train)?;
    let release = model.sample(train.n_rows(), 17)?;
    println!("auditing a {}-row synthetic release\n", release.n_rows());

    println!("re-identification (Figure 5):");
    for overlap in [0.3, 0.6, 0.9] {
        let acc = reidentification_attack(&train, &release, overlap, 200, 7);
        println!(
            "  attacker knows {:>2.0}% of originals -> linkage accuracy {acc:.3}",
            overlap * 100.0
        );
    }

    println!("\nattribute inference (Figure 6):");
    let acc = attribute_inference_attack(&train, &release, "event", 200)?;
    println!("  inferring the event class from quasi-identifiers -> {acc:.3}");

    println!("\nmembership inference (Figure 7):");
    let n = 200.min(train.n_rows()).min(holdout.n_rows());
    let idx: Vec<usize> = (0..n).collect();
    let members = train.select_rows(&idx);
    let non_members = holdout.select_rows(&idx);
    let mut probe = Table::empty(members.schema().clone());
    probe.append(&members)?;
    probe.append(&non_members)?;
    let critic = model.critic_scores(&probe)?;
    let mi = membership_inference_attack(&members, &non_members, &release, critic.as_deref());
    println!("  white-box  (WB)  accuracy {:.3}", mi.white_box);
    println!("  black-box  (FBB) accuracy {:.3}", mi.full_black_box);
    println!("\n(0.5 = the attacker learns nothing)");
    Ok(())
}
