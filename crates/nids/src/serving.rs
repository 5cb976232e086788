//! NIDS-facing flow scoring against the resident fleet service.
//!
//! The fleet side ([`kinet_fleet::service`]) trains and commits pooled
//! serving models generation by generation; this module is the detector
//! front end that consumes them. A [`FlowScorer`] wraps the service's
//! [`ServingHandle`] and answers flow batches with an explicit
//! [`FlowVerdict`]: how many rows were flagged as attacks, which snapshot
//! generation answered, and whether the answer is *degraded* — served
//! from a generation older than the round in flight because the current
//! round aborted, failed, or is still training.

use kinet_data::Table;
use kinet_fleet::{FleetError, ServingHandle, ServingModel};

/// One scored flow batch, as the deployment sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowVerdict {
    /// Rows scored.
    pub rows: usize,
    /// Rows flagged as some attack class.
    pub attack_flagged: usize,
    /// Mean real-vs-pool discriminator score (drift probe).
    pub mean_discriminator: f64,
    /// Snapshot generation that answered.
    pub generation: u64,
    /// Rounds since that generation committed.
    pub staleness: u64,
}

impl FlowVerdict {
    /// `true` when the answer came from a stale generation — the fleet
    /// round in flight has not (or not yet) committed.
    pub fn degraded(&self) -> bool {
        self.staleness > 0
    }
}

/// The deployed flow scorer: holds whatever generation the fleet service
/// last committed and keeps answering while newer rounds run, abort, or
/// fail.
#[derive(Clone, Debug, Default)]
pub struct FlowScorer {
    handle: ServingHandle,
}

impl FlowScorer {
    /// A scorer with nothing installed; answers `None` until the first
    /// committed generation arrives.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adopts an existing service-side handle (e.g. after a resumed
    /// service restored its committed models from the snapshot store).
    pub fn from_handle(handle: ServingHandle) -> Self {
        Self { handle }
    }

    /// Installs a freshly committed generation's models.
    pub fn install(&mut self, model: ServingModel, generation: u64, committed_round: usize) {
        self.handle.install(model, generation, committed_round);
    }

    /// The installed generation, if any.
    pub fn generation(&self) -> Option<u64> {
        self.handle.generation()
    }

    /// Scores a flow batch. `current_round` is the fleet round in flight
    /// (stamps staleness). `Ok(None)` means no generation has committed
    /// yet — the caller decides whether to queue or drop.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError`] when the batch's schema does not match the
    /// encoder the committed generation was trained with.
    pub fn score(
        &self,
        flows: &Table,
        current_round: usize,
    ) -> Result<Option<FlowVerdict>, FleetError> {
        Ok(self
            .handle
            .answer(flows, current_round)?
            .map(|score| FlowVerdict {
                rows: score.rows,
                attack_flagged: score.attack_flagged,
                mean_discriminator: score.mean_discriminator,
                generation: score.generation,
                staleness: score.staleness,
            }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_datasets::lab::{LabSimConfig, LabSimulator};

    #[test]
    fn scorer_answers_with_generation_and_staleness() {
        let pool = LabSimulator::new(LabSimConfig::small(300, 21))
            .generate()
            .unwrap();
        let model = ServingModel::train(&pool, 25, 5).unwrap();
        let flows = LabSimulator::new(LabSimConfig::small(96, 22))
            .generate()
            .unwrap();

        let mut scorer = FlowScorer::empty();
        assert!(
            scorer.score(&flows, 0).unwrap().is_none(),
            "nothing committed yet"
        );
        assert_eq!(scorer.generation(), None);

        scorer.install(model, 3, 4);
        let fresh = scorer.score(&flows, 4).unwrap().unwrap();
        assert_eq!(fresh.rows, 96);
        assert_eq!(fresh.generation, 3);
        assert!(!fresh.degraded(), "same round as the commit");

        let stale = scorer.score(&flows, 6).unwrap().unwrap();
        assert_eq!(stale.staleness, 2);
        assert!(stale.degraded());
        // Scoring is a pure function of (model, batch) — the round stamp
        // never changes the verdict counts.
        assert_eq!(stale.attack_flagged, fresh.attack_flagged);
        assert_eq!(stale.mean_discriminator, fresh.mean_discriminator);
    }
}
