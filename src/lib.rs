//! Umbrella crate for the KiNETGAN reproduction workspace: re-exports every
//! member crate and hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`).
//!
//! See `README.md` for the tour and `DESIGN.md` for the paper-to-module
//! mapping.

pub use kinet_baselines as baselines;
pub use kinet_data as data;
pub use kinet_datasets as datasets;
pub use kinet_eval as eval;
pub use kinet_fleet as fleet;
pub use kinet_kg as kg;
pub use kinet_nn as nn;
pub use kinet_obs as obs;
pub use kinet_tensor as tensor;
pub use kinetgan as model;
