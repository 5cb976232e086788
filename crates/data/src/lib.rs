//! Tabular-data substrate for the KiNETGAN reproduction.
//!
//! Network-activity data is tabular: a mix of sparse categorical attributes
//! (protocol, event class, IP addresses) and skewed continuous ones (ports,
//! packet counts, durations). This crate provides everything the generative
//! models and the evaluation harness need to work with such data:
//!
//! * [`Table`], [`Schema`], [`Value`]: columnar storage with categorical
//!   dictionaries, CSV I/O and deterministic splits;
//! * [`gmm::GaussianMixture1d`]: EM-fitted mixtures powering CTGAN-style
//!   **mode-specific normalization** ([`transform::ModeSpecificNormalizer`]);
//! * [`transform::DataTransformer`]: whole-table encoding into the GAN's
//!   input space (one-hot categoricals + per-mode normalized continuous
//!   values) and back;
//! * [`condition::ConditionVectorSpec`]: the paper's condition vector `C`
//!   (Eq. 1–2) over the discrete conditional attributes, with both
//!   log-frequency (CTGAN) and uniform minority-boosting (§III-A-3)
//!   sampling;
//! * [`encoded::EncodedTable`]: the interned fast-path encoding (category
//!   strings → `kinet_kg` symbols) plus compiled KG validity scoring over
//!   whole tables;
//! * [`sampler::TrainingSampler`]: training-by-sampling row lookup;
//! * [`stream::ChunkSource`] / [`stream::StreamingShard`]: out-of-core
//!   chunked row streams with deterministic reservoir sampling and a
//!   decoded-rows peak tracker, the substrate of the fleet simulation;
//! * [`synth::TabularSynthesizer`]: the trait every generative model in the
//!   workspace implements, so evaluation code is model-agnostic.

pub mod condition;
pub mod encoded;
pub mod gmm;
pub mod sampler;
pub mod stream;
pub mod synth;
pub mod transform;

mod schema;
mod table;
mod value;

pub use schema::{ColumnKind, ColumnMeta, Schema};
pub use table::{DataError, Table};
pub use value::Value;
