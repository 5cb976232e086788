//! Dense, row-major, CPU matrix algebra for the KiNETGAN reproduction.
//!
//! This crate is the lowest layer of the workspace: a deliberately small,
//! BLAS-free `f32` matrix type with the operations the neural-network stack
//! ([`kinet-nn`]) and the statistical tooling need. All randomness flows
//! through explicit [`rand`] generators, and the matrix products run on a
//! packed, cache-tiled, register-blocked kernel (see [`kernel` layout notes
//! in DESIGN.md]) on the calling thread, bit-for-bit identical to a naive
//! ascending-`k` dot product. The [`pool`] module only resolves the
//! `KINET_THREADS` knob, which sizes the fleet scheduler's task workers.
//!
//! [`kernel` layout notes in DESIGN.md]: https://example.org/kinetgan-rs
//!
//! # Quick start
//!
//! ```
//! use kinet_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! assert_eq!(c.sum(), 10.0);
//! ```
//!
//! [`kinet-nn`]: https://example.org/kinetgan-rs

mod kernel;
mod matrix;
mod ops;
pub mod pool;
mod random;
mod stats;

pub use matrix::Matrix;
pub use pool::with_threads;
pub use random::{gaussian_pair, MatrixRandomExt};

/// Numerical tolerance used by the crate's own tests and recommended for
/// comparisons of values produced by iterative routines.
pub const EPSILON: f32 = 1e-5;

/// Returns `true` when two floats are within `tol` of each other, treating
/// NaNs as never close.
///
/// ```
/// assert!(kinet_tensor::approx_eq(1.0, 1.0 + 1e-7, 1e-5));
/// assert!(!kinet_tensor::approx_eq(1.0, 1.1, 1e-5));
/// ```
pub fn approx_eq(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol
}
